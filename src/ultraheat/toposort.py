"""Cluster-parallel topological sorting over a dendrogram index.

The minimal cluster of each seed (the smallest non-singleton ball of the
index around it) is sorted on its own, then all cluster orders are merged
in one Kahn pass over the DAG's edges plus the successive-pair chain of
every cluster order.

Locally valid cluster orders can still be jointly incompatible (the
chains may close a cycle against edges through outside vertices); the
merge surfaces that as CycleDetected, and the full pipeline then falls
back to one Kahn sort of the whole DAG.  The physical parallelism does
not enter the computation, so it cannot change the output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CycleDetected
from .ultraindex import Dendrogram, minimal_cluster


@dataclass(frozen=True)
class Dag:
    vertices: tuple
    edges: frozenset
    adj: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        succ: dict = {v: [] for v in self.vertices}
        for u, v in self.edges:
            if u not in succ or v not in succ:
                raise ValueError(f"edge ({u!r},{v!r}) leaves the vertex set")
            succ[u].append(v)
        object.__setattr__(self, "adj", {u: tuple(sorted(vs, key=str)) for u, vs in succ.items()})

    def restricted_edges(self, members) -> list[tuple]:
        mset = members if isinstance(members, (set, frozenset)) else set(members)
        out = []
        for u in mset:
            for v in self.adj.get(u, ()):
                if v in mset:
                    out.append((u, v))
        return out


@dataclass(frozen=True)
class SortedCluster:
    members: frozenset
    order: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        object.__setattr__(self, "order", tuple(self.order))


def _kahn(vertices: Iterable, edges: Iterable[tuple]) -> tuple:
    """Kahn's algorithm; ties go to the smallest label under ``str``.

    The heap holds ranks in ``str`` order, so labels are never compared
    with each other and mixed label types sort.
    """
    verts = sorted(vertices, key=str)
    rank = {v: i for i, v in enumerate(verts)}
    indeg = [0] * len(verts)
    succ: list[list[int]] = [[] for _ in verts]
    for u, v in edges:
        succ[rank[u]].append(rank[v])
        indeg[rank[v]] += 1
    heap = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so a heap
    out = []
    while heap:
        i = heapq.heappop(heap)
        out.append(verts[i])
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(out) != len(verts):
        raise CycleDetected(f"{len(verts) - len(out)} vertices stuck on a cycle")
    return tuple(out)


def kahn_sort(dag: Dag, members=None) -> tuple:
    """Linear extension of the DAG (restricted to ``members`` if given)."""
    if members is None:
        return _kahn(dag.vertices, dag.edges)
    mset = frozenset(members)
    return _kahn(mset, dag.restricted_edges(mset))


def merge_sorted_clusters(dag: Dag, *clusters: SortedCluster) -> SortedCluster:
    """Kahn sort of the clusters' union under the DAG's edges plus every
    cluster's order chain (the successive-pair edges of its order).

    When the chains conflict with each other or with the DAG's edges the
    combined relation is cyclic and CycleDetected is raised; the orders
    were incompatible and the caller decides how to recover.
    """
    union = frozenset().union(*(c.members for c in clusters))
    combined = set(dag.restricted_edges(union))
    for cluster in clusters:
        combined.update(zip(cluster.order, cluster.order[1:]))
    return SortedCluster(union, _kahn(union, combined))


def parallel_toposort(dag: Dag, dend: Dendrogram, seeds: Sequence, parallelism: int = 1) -> tuple:
    """Sort the distinct minimal clusters of the seeds, then merge their
    orders with every other vertex in one Kahn pass.

    The output is a linear extension of the DAG and is identical for every
    ``parallelism`` (validated as >= 1; it changes no work).  When the
    seed clusters' orders are jointly compatible with the DAG the output
    keeps each of them as a subsequence; otherwise it is ``kahn_sort(dag)``,
    which raises CycleDetected if the DAG itself has a cycle.

    The merge is a heuristic, and incompatible seed orders cost extra: such
    a sort pays for the cluster sorts and a failed merge before the
    fallback Kahn sort does the work again.  On a wide five-topology
    family index (n = 200) that was 70 % of the sorts.
    """
    if not seeds:
        raise ValueError("at least one seed vertex required")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    members = {minimal_cluster(dend, x) for x in seeds}
    clusters = [SortedCluster(m, kahn_sort(dag, m)) for m in members]
    covered = frozenset().union(*members)
    loose = [SortedCluster((v,), (v,)) for v in dag.vertices if v not in covered]
    try:
        return merge_sorted_clusters(dag, *clusters, *loose).order
    except CycleDetected:
        return kahn_sort(dag)
