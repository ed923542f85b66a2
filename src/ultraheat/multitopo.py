"""Lossless encoding of families of finite T0-topologies in one weighted graph.

A finite T0-topology on a point set is the same thing as a partial order,
and the partial order is determined by any DAG whose transitive closure it
is (for Hasse diagrams, the covering relation).  A family of N such DAGs
over one shared vertex set is packed into a single simple undirected graph:

* each undirected edge carries the product of the primes assigned to the
  topologies containing it (a squarefree positive integer), and
* each vertex carries its dimension vector, where coordinate i is the
  length in edges of a longest directed chain starting at the vertex in
  DAG i.

Factoring an edge weight recovers which topologies the edge belongs to,
and comparing endpoint dimensions recovers its orientation in each one:
along any directed edge the origin's chain length strictly exceeds the
target's.  Hence ``decode(encode(family)) == family`` exactly.

Each topology is checked and measured as a ``Dag``, the DAG type that
``toposort`` sorts too.  A ``Dag`` computes its chain lengths once, on
first read (``Dag.heights``), from one Kahn walk (``_kahn``); the same
lengths order every seed cluster in ``toposort``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    AmbiguousOrientation,
    CycleDetected,
    CyclicInput,
    DuplicatePrime,
    NotPrime,
    UnknownPrimeFactor,
)

Edge = tuple  # ordered pair (origin, target)


# Miller-Rabin to the bases 2 .. 41 is exact below PRIME_BOUND, the least
# composite that is a strong probable prime to all of them (Sorenson and
# Webster, Math. Comp. 86 (2017)); to the bases 2 .. 37 alone it would
# pass 318665857834031151167461 = 399165290221 * 798330580441.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(k: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError for k >= PRIME_BOUND."""
    if k >= PRIME_BOUND:
        raise ValueError(f"{k} is at least {PRIME_BOUND}, beyond the exact primality test")
    if k < 2:
        return False
    for b in _BASES:
        if k % b == 0:
            return k == b
    d, r = k - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _BASES:
        x = pow(b, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(r - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def _check_primes(primes: tuple) -> None:
    """Raise DuplicatePrime or NotPrime unless the primes are distinct
    primes, each below PRIME_BOUND."""
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"primes collide: {primes}")
    for p in primes:
        try:
            prime = is_prime(p)
        except ValueError as exc:
            raise NotPrime(str(exc)) from None
        if not prime:
            raise NotPrime(f"{p} is not prime")


def first_primes(n: int) -> tuple[int, ...]:
    """The first n primes 2, 3, 5, ... (used for default assignments)."""
    out: list[int] = []
    k = 2
    while len(out) < n:
        if is_prime(k):
            out.append(k)
        k += 1
    return tuple(out)


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

    @cached_property
    def heights(self) -> tuple:
        """Longest directed chain length (edge count) starting at each rank,
        from one Kahn order read backwards; along every edge u -> v the
        height of u exceeds that of v.  Computed on first read; raises
        CycleDetected, and caches nothing, if the edges have a cycle."""
        succ, rank = self.succ, self.rank
        height = [0] * len(succ)
        for v in reversed(_kahn(self, succ, list(self.indegree))):
            i = rank[v]
            best = 0
            for j in succ[i]:
                if height[j] >= best:
                    best = height[j] + 1
            height[i] = best
        return tuple(height)


def _kahn(dag: Dag, succ: Sequence, indeg: list) -> tuple:
    """Kahn's algorithm over every rank: pop the smallest rank of indegree
    0, then decrement ``indeg`` (consumed) along ``succ``."""
    heap = [i for i, k in enumerate(indeg) if k == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        i = heapq.heappop(heap)
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(out) != len(indeg):
        raise CycleDetected(f"{len(indeg) - len(out)} vertices stuck on a cycle")
    return tuple(map(dag.str_order.__getitem__, out))


def chain_lengths(vertices: Iterable, edges: Iterable[Edge]) -> dict:
    """Longest directed chain length (edge count) starting at each vertex:
    the ``Dag``'s ``heights`` by label.  Raises CyclicInput if the edge
    set has a directed cycle, and ValueError where ``Dag`` does."""
    dag = Dag(vertices, edges)
    try:
        return dict(zip(dag.str_order, dag.heights))
    except CycleDetected as exc:
        raise CyclicInput(str(exc)) from None


@dataclass(frozen=True)
class TopologyFamily:
    """N DAGs on one finite vertex set, with one distinct prime per DAG."""

    vertex_ids: tuple
    dags: tuple[frozenset, ...]
    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_ids", tuple(self.vertex_ids))
        object.__setattr__(self, "dags", tuple(frozenset(d) for d in self.dags))
        object.__setattr__(self, "primes", tuple(self.primes))

    def validate(self) -> list[dict]:
        """Check the primes, and each topology's vertices, edges and
        acyclicity through its ``Dag``; return every DAG's
        ``chain_lengths``, which the cycle check computes anyway."""
        if len(self.primes) != len(self.dags):
            raise ValueError("one prime per topology required")
        _check_primes(self.primes)
        return [chain_lengths(self.vertex_ids, dag) for dag in self.dags]


@dataclass(frozen=True)
class WeightedMultiGraph:
    """The lossless encoding: simple undirected graph with prime-product edge
    weights and per-vertex dimension vectors."""

    vertices: tuple
    w: Mapping  # frozenset({u, v}) -> positive squarefree int, one key per edge
    d: Mapping  # vertex -> tuple of N ints

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))


def encode(family: TopologyFamily) -> WeightedMultiGraph:
    """Pack a validated family into a single weighted graph.

    Edge weights are products of the primes of the topologies containing
    the edge (undirected).  Dimensions are longest-chain edge counts, so
    minimal elements get 0, and vertices untouched by a DAG get 0 too.
    """
    per_dag = family.validate()
    weights: dict = {}
    for prime, dag in zip(family.primes, family.dags):
        for u, v in dag:
            e = frozenset((u, v))
            weights[e] = weights.get(e, 1) * prime
    return WeightedMultiGraph(
        vertices=family.vertex_ids,
        w=weights,
        d={v: tuple(lengths[v] for lengths in per_dag) for v in family.vertex_ids},
    )


def decode(g: WeightedMultiGraph, primes: Sequence[int]) -> TopologyFamily:
    """Recover the exact original family from its weighted-graph encoding.

    The primes must be distinct primes (DuplicatePrime, NotPrime).  Each
    edge weight is divided once by every listed prime; any residue signals
    a factor outside the alphabet.  Orientation of edge e in
    topology i points from the endpoint with the larger dimension d_i to
    the smaller; equal dimensions cannot arise from a valid encoding.  The
    edges are read in one pass, in any order; of the edges that fail, the
    one whose (str, str) ends sort first raises, under every hash seed.
    """
    primes = tuple(primes)
    _check_primes(primes)
    dags: list[set] = [set() for _ in primes]
    failures = {}  # (str u, str v) of a failing edge -> its exception
    for e, weight in g.w.items():
        u, v = e
        residue = weight
        members = []
        for i, p in enumerate(primes):
            if residue % p == 0:
                members.append(i)
                residue //= p
        if residue != 1:
            u, v = sorted(e, key=str)
            failures[str(u), str(v)] = UnknownPrimeFactor(
                f"edge {{{u!r},{v!r}}} has weight {weight} with factor {residue} outside {primes}"
            )
            continue
        for i in members:
            du, dv = g.d[u][i], g.d[v][i]
            if du == dv:
                u, v = sorted(e, key=str)
                failures[str(u), str(v)] = AmbiguousOrientation(
                    f"edge {{{u!r},{v!r}}} in topology {i}: both endpoints have dimension {du}"
                )
                break
            dags[i].add((u, v) if du > dv else (v, u))
    if failures:
        raise failures[min(failures)]
    return TopologyFamily(
        vertex_ids=g.vertices,
        dags=tuple(frozenset(d) for d in dags),
        primes=primes,
    )
