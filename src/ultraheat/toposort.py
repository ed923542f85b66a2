"""Cluster-parallel topological sorting over a dendrogram index.

A ``Dag`` (from ``multitopo``) numbers its vertices once, by rank in
``str`` order, and keeps each rank's successor ranks and indegree.  Every
Kahn pass is ``multitopo._kahn`` on these integers with a min-rank heap,
so ties go to the smallest label under ``str`` and no pass re-sorts or
re-reads the labels.

The minimal cluster of each seed (the smallest non-singleton ball of the
index around it) is sorted by longest chain to a sink, the critical-path
priority of list scheduling (T. C. Hu, Oper. Res. 9 (1961)): by
decreasing ``Dag.heights``, ties by rank.  Then the whole DAG is sorted
in one Kahn pass over its edges plus the successive-pair chain of every
cluster order.  Every sort and merge returns its order as a plain tuple
of labels.

Every cluster order is the restriction of one linear extension, the
DAG's (-height, rank) order, so the chains never close a cycle and the
merge keeps every cluster order.  The physical parallelism does not
enter the computation, so it cannot change the output.
"""

from __future__ import annotations

from typing import Sequence

from .multitopo import Dag, _kahn
from .ultraindex import Dendrogram, minimal_cluster


def kahn_sort(dag: Dag) -> tuple:
    """Linear extension of the DAG; ties go to the smallest label under ``str``."""
    return _kahn(dag, dag.succ, list(dag.indegree))


def merge_sorted_clusters(dag: Dag, *orders: Sequence) -> tuple:
    """Kahn sort of the whole DAG under its edges plus the chain of every
    cluster order (the successive-pair edges of the order), returned as
    one tuple of labels.  A vertex in no cluster is bound by the DAG's
    edges alone.

    When the chains conflict with each other or with the DAG's edges the
    combined relation is cyclic and CycleDetected is raised.
    """
    succ = list(dag.succ)
    indeg = list(dag.indegree)
    for order in orders:
        ranks = dag.ranks(order)
        for i, j in zip(ranks, ranks[1:]):
            succ[i] += (j,)
            indeg[j] += 1
    return _kahn(dag, succ, indeg)


def parallel_toposort(dag: Dag, dend: Dendrogram, seeds: Sequence, parallelism: int = 1) -> tuple:
    """Sort the distinct minimal clusters of the seeds by (-height, rank),
    then merge their orders in one Kahn pass over the whole DAG.

    The output is a linear extension of the DAG that keeps every seed
    cluster's order as a subsequence, and is identical for every
    ``parallelism`` (validated as >= 1; it changes no work).  A cyclic DAG
    raises CycleDetected.  The heights are computed once per ``Dag``, so a
    sort costs the cluster sorts and one O(e + n log n) merge on the ranks,
    successor lists and indegrees the ``Dag`` built once.
    """
    if not seeds:
        raise ValueError("at least one seed vertex required")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    members = {minimal_cluster(dend, x) for x in seeds}
    heights, label = dag.heights, dag.str_order
    orders = [[label[i] for i in sorted(dag.ranks(m), key=lambda i: (-heights[i], i))]
              for m in members]
    return merge_sorted_clusters(dag, *orders)
