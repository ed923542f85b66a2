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

The graph holds its edges as ``EdgeColumns``: the str ranks of their two
ends and their weights, column by column.  ``encode`` builds them from the
topologies' rank pairs, and ``decode`` factors each distinct weight once
and orients each topology's edges with one array comparison.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

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


class EdgeColumns(Mapping):
    """A graph's edges as rank columns.  ``labels`` lists the vertices in
    ``str`` order; edge k joins labels[lo[k]] and labels[hi[k]] (intp
    arrays, lo < hi, no pair twice) and weighs weights[k].  The weights are
    a tuple of Python ints for the graph's prime products, which pass
    2^63, and float64 for distance weights.  The edges keep the order in
    which they were read or built.

    As a Mapping it is {frozenset({u, v}): weight} in that order, for
    tests and oracles; the dict behind it is built on first lookup."""

    def __init__(self, labels, lo: np.ndarray, hi: np.ndarray, weights):
        self.labels, self.lo, self.hi, self.weights = tuple(labels), lo, hi, weights

    @classmethod
    def from_mapping(cls, labels, weights: Mapping) -> "EdgeColumns":
        """The columns of a {frozenset({u, v}): weight} map over ``labels``
        (in str order), its values kept as a tuple, or the weights
        themselves when they are columns over these labels; KeyError(key)
        for the first key that does not name two of the labels."""
        if isinstance(weights, EdgeColumns) and weights.labels == tuple(labels):
            return weights
        rank = {v: i for i, v in enumerate(labels)}
        ends = []
        for e in weights:
            try:
                u, v = e
                ends.append((rank[u], rank[v]))
            except (KeyError, ValueError):
                raise KeyError(e) from None
        ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
        return cls(labels, ends.min(axis=1), ends.max(axis=1), tuple(weights.values()))

    def __len__(self) -> int:
        return len(self.lo)

    def __iter__(self):
        labels = self.labels
        return (frozenset((labels[i], labels[j]))
                for i, j in zip(self.lo.tolist(), self.hi.tolist()))

    def __getitem__(self, key):
        return self._by_key[key]

    @cached_property
    def _by_key(self) -> dict:
        weights = self.weights
        return dict(zip(self, weights.tolist() if isinstance(weights, np.ndarray) else weights))

    def __repr__(self) -> str:
        return f"EdgeColumns({dict(self)!r})"


@dataclass(frozen=True)
class WeightedMultiGraph:
    """The lossless encoding: simple undirected graph with prime-product edge
    weights and per-vertex dimension vectors.  A {frozenset({u, v}):
    weight} map given for ``w`` is turned into ``EdgeColumns``."""

    vertices: tuple
    w: EdgeColumns  # positive squarefree ints, over the vertices in str order
    d: Mapping  # vertex -> tuple of N ints

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not isinstance(self.w, EdgeColumns):
            labels = tuple(sorted(self.vertices, key=str))
            object.__setattr__(self, "w", EdgeColumns.from_mapping(labels, self.w))


def encode(family: TopologyFamily) -> WeightedMultiGraph:
    """Pack a validated family into a single weighted graph.

    Edge weights are products of the primes of the topologies containing
    the edge (undirected).  Dimensions are longest-chain edge counts, so
    minimal elements get 0, and vertices untouched by a DAG get 0 too.
    Each edge is a (lo, hi) pair of str ranks; the topologies' rank pairs
    are sorted together, and each edge's primes multiplied as Python ints,
    which pass 2^63.
    """
    per_dag = family.validate()
    labels = tuple(sorted(family.vertex_ids, key=str))
    rank = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    keys = [np.empty(0, dtype=np.intp)]  # lo * n + hi of each edge, topology by topology
    for dag in family.dags:
        ends = np.fromiter(map(rank.__getitem__, itertools.chain.from_iterable(dag)),
                           dtype=np.intp, count=2 * len(dag)).reshape(-1, 2)
        keys.append(ends.min(axis=1) * n + ends.max(axis=1))
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    pairs = keys[order]
    starts = np.flatnonzero(np.diff(pairs, prepend=-1))  # the first of each edge's topologies
    primes = np.array(family.primes, dtype=object)[
        np.repeat(np.arange(len(family.dags)), [*map(len, family.dags)])]
    weights = np.multiply.reduceat(primes[order], starts).tolist() if len(starts) else []
    lo, hi = np.divmod(pairs[starts], n)
    return WeightedMultiGraph(
        vertices=family.vertex_ids,
        w=EdgeColumns(labels, lo, hi, tuple(weights)),
        d={v: tuple(lengths[v] for lengths in per_dag) for v in family.vertex_ids},
    )


def _dims_by_rank(g: WeightedMultiGraph) -> np.ndarray:
    """The dimension vectors of g's vertices in str order as the rows of an
    int64 array, or of Python ints where one is past int64."""
    rows = [g.d[v] for v in g.w.labels]
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), -1)


def decode(g: WeightedMultiGraph, primes: Sequence[int]) -> TopologyFamily:
    """Recover the exact original family from its weighted-graph encoding.

    The primes must be distinct primes (DuplicatePrime, NotPrime).  Each
    distinct edge weight is divided once by every listed prime; any residue
    signals a factor outside the alphabet.  Orientation of edge e in
    topology i points from the endpoint with the larger dimension d_i to
    the smaller; equal dimensions cannot arise from a valid encoding.  Of
    the edges that fail, the one whose (str, str) ends sort first raises.
    """
    primes = tuple(primes)
    _check_primes(primes)
    w = g.w
    labels, lo, hi = w.labels, w.lo, w.hi
    code = {x: k for k, x in enumerate(dict.fromkeys(w.weights))}  # each distinct weight
    residues = []
    members = np.zeros((len(code), len(primes)), dtype=bool)
    for k, residue in enumerate(code):
        for i, p in enumerate(primes):
            if residue % p == 0:
                members[k, i] = True
                residue //= p
        residues.append(residue)
    of_edge = np.fromiter(map(code.__getitem__, w.weights), dtype=np.intp, count=len(w))
    unknown = np.array([r != 1 for r in residues], dtype=bool)[of_edge]
    member = members[of_edge]
    dims = _dims_by_rank(g)
    if member[~unknown, dims.shape[1]:].any():
        raise IndexError("a dimension vector is shorter than the primes")
    dims = np.pad(dims[:, :len(primes)], ((0, 0), (0, max(len(primes) - dims.shape[1], 0))))
    du, dv = dims[lo], dims[hi]
    down = du > dv  # per edge and topology: the edge runs lo -> hi
    tie = member & (du == dv)
    failing = unknown | tie.any(axis=1)
    if failing.any():
        k = min(np.flatnonzero(failing).tolist(), key=lambda k: (lo[k], hi[k]))
        u, v = labels[lo[k]], labels[hi[k]]
        if unknown[k]:
            weight = w.weights[k]
            raise UnknownPrimeFactor(f"edge {{{u!r},{v!r}}} has weight {weight} with factor "
                                     f"{residues[code[weight]]} outside {primes}")
        i = int(np.argmax(tie[k]))
        raise AmbiguousOrientation(
            f"edge {{{u!r},{v!r}}} in topology {i}: both endpoints have dimension {g.d[u][i]}")
    dags = []
    for i in range(len(primes)):
        a, b, forward = lo[member[:, i]], hi[member[:, i]], down[member[:, i], i]
        origin, target = np.where(forward, a, b).tolist(), np.where(forward, b, a).tolist()
        dags.append(frozenset(zip(map(labels.__getitem__, origin),
                                  map(labels.__getitem__, target))))
    return TopologyFamily(vertex_ids=g.vertices, dags=tuple(dags), primes=primes)
