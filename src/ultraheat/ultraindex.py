"""Weighted graph distances, subdominant ultrametric, and the dendrogram index.

The subdominant ultrametric of a metric d is the largest ultrametric below
it; on a finite set it equals the minimax path distance (minimise over
paths the maximum step) and the single-linkage merge heights.  Its balls
are nested or disjoint and form a rooted tree, the dendrogram, which is
the index structure used everywhere else in this package.  Of a graph,
``graph_dendrogram`` builds that tree from the graph's own edges; the
dense routes (``subdominant_ultrametric``, ``build_dendrogram``) start
from a full distance matrix.  One function builds the tree for all of
them, one union-find over the graph's edges or the matrix's minimum
spanning tree, and the rest is read off it: the dense ultrametric is its
``delta_matrix``, and ``graph_distances`` builds it to tell a graph that
falls apart from a distance that overflows.  A node belongs to the one
tree built over it.  The tree keeps one leaf order, the labels in
preorder: each node is a range of it, numbered by its preorder position;
``slots`` gives the leaf slot of each vertex's rank in ``str`` order, the
order of every other layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BadWeight, DisconnectedGraph
from .multitopo import EdgeColumns, WeightedMultiGraph


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal over labelled points."""

    labels: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    def of(self, u, v) -> float:
        return float(self.values[self.index(u), self.index(v)])

    def check_metric(self, tol: float = 0.0) -> bool:
        v = self.values
        if v.shape != (self.n, self.n):
            return False
        if not np.allclose(v, v.T, rtol=0, atol=tol):
            return False
        if np.any(np.abs(np.diag(v)) > tol):
            return False
        for k in range(self.n):
            if np.any(v > np.add.outer(v[:, k], v[k, :]) + tol):
                return False
        return True


class UltrametricMatrix(DistanceMatrix):
    """A DistanceMatrix satisfying the strong triangle inequality."""

    def check_ultrametric(self, tol: float = 0.0) -> bool:
        v = self.values
        for k in range(self.n):
            if np.any(v > np.maximum.outer(v[:, k], v[k, :]) + tol):
                return False
        return True


def _log1(w: int) -> float:
    """log(w + 1) in float arithmetic, or of the int where w is past the
    float range (about 1.8e308), so that a product of many large primes
    still has a finite weight."""
    try:
        return math.log(w + 1.0)
    except OverflowError:
        return math.log(w + 1)


def default_distance_weights(g: WeightedMultiGraph) -> EdgeColumns:
    """Distance weight 1/log(w(e)+1): edges shared by more topologies are
    shorter, so strongly co-connected vertices cluster together.  Taken
    once per distinct weight, on g's own edge columns."""
    w = g.w
    distance = {x: 1.0 / _log1(x) for x in dict.fromkeys(w.weights)}
    return EdgeColumns(w.labels, w.lo, w.hi,
                       np.fromiter(map(distance.__getitem__, w.weights), dtype=float, count=len(w)))


def _graph_edges(graph, weights: Mapping | None) -> tuple[tuple, np.ndarray]:
    """Vertex labels sorted by str and the edges as (weight, i, j) rows,
    i < j, of a float array, of a graph given as ``graph_distances`` takes
    it: ``EdgeColumns`` over those labels are read as they are, any other
    map is ranked first.  Raises BadWeight for a weight that is not finite
    and positive (the first in the map's order) and then for a key that
    does not name two listed vertices."""
    if isinstance(graph, WeightedMultiGraph):
        vertices = graph.vertices
        if weights is None:
            weights = default_distance_weights(graph)
    else:
        vertices = tuple(graph)
        if weights is None:
            raise ValueError("explicit weights required for a plain vertex list")
    labels = tuple(sorted(vertices, key=str))
    values = weights.weights if isinstance(weights, EdgeColumns) else list(weights.values())
    wt = np.array(values, dtype=float).reshape(-1)
    good = np.isfinite(wt) & (wt > 0)
    if not good.all():
        k = int(np.argmin(good))
        raise BadWeight(f"edge weight must be finite and positive, got {values[k]} on "
                        f"{_key_text(list(weights)[k])}")
    try:
        weights = EdgeColumns.from_mapping(labels, weights)
    except KeyError as exc:
        raise BadWeight("edge weight key must name two listed vertices, "
                        f"got {_key_text(exc.args[0])}") from None
    return labels, np.column_stack((wt, weights.lo, weights.hi))


def _key_text(e) -> str:
    """A weight key's vertices in str order, not the hash order."""
    return "{" + ", ".join(map(repr, sorted(e, key=str))) + "}"


# Candidate relaxations per slice of the frontier: one relaxation step
# holds a few arrays of this length, whatever n and |E|.  On an 800-vertex
# graph of 15,780 edges, 2^10 to 2^14 traced the same peak within 2 % and
# 2^15 6 % more; 2^10 took twice as long as 2^13.
RELAX_SLICE = 1 << 13


def _frontier_slices(frontier: np.ndarray, degree: np.ndarray, n: int):
    """The frontier's flat (source, vertex) indices in consecutive slices
    of at most RELAX_SLICE pairs (unless the graph has no edge), whose arcs
    exceed RELAX_SLICE by less than one vertex's degree."""
    if frontier.size * int(degree.max(initial=0)) <= RELAX_SLICE:  # one slice, no cut to find
        yield frontier
        return
    for lo in range(0, frontier.size, RELAX_SLICE):
        part = frontier[lo:lo + RELAX_SLICE]
        ends = np.cumsum(degree[part % n])
        yield from np.split(part, np.searchsorted(
            ends, np.arange(RELAX_SLICE, ends[-1], RELAX_SLICE), side="right"))


def graph_distances(graph, weights: Mapping | None = None) -> DistanceMatrix:
    """All-pairs shortest-path distances of an undirected weighted graph.

    ``graph`` is either a WeightedMultiGraph (weights default to the
    1/log(w+1) map unless given) or an iterable of vertex labels with an
    explicit ``weights`` mapping frozenset({u,v}) -> positive float.
    Raises BadWeight for a weight that is not finite and positive, a key
    that does not name two listed vertices, or a distance that overflows
    the largest float, and DisconnectedGraph if any pair is unreachable.

    All sources relax at once, frontier by frontier: each round relaxes
    every arc u -> v out of each (source, u) pair whose distance fell in
    the round before, by d(s, u) + w(u, v), until no distance falls.
    Float addition is monotone and the weights positive, so this fixed
    point, like a Dijkstra run from each source, is for each pair the
    minimum over walks of the left-to-right float sum: the same bits.
    """
    labels, edges = _graph_edges(graph, weights)
    n = len(labels)
    wt, i, j = edges.T
    tail, head = np.concatenate([i, j]).astype(np.intp), np.concatenate([j, i]).astype(np.intp)
    order = np.argsort(tail, kind="stable")  # the arcs as CSR rows, one row per tail
    head, wt = head[order], np.concatenate([wt, wt])[order]
    degree = np.bincount(tail, minlength=n)
    start = np.cumsum(degree) - degree
    out = np.full((n, n), np.inf)
    np.fill_diagonal(out, 0.0)
    flat = out.reshape(-1)
    fell = np.zeros(n * n, dtype=bool)
    frontier = np.arange(n) * (n + 1)  # flat indices of the (source, vertex) pairs
    with np.errstate(over="ignore"):  # an overflowing sum is inf, refused below
        while frontier.size:
            for part in _frontier_slices(frontier, degree, n):
                u = part % n
                count = degree[u]
                slot = np.repeat(np.arange(part.size), count)  # the pair of each arc relaxed
                pair = part[slot]
                first = start[u] - (np.cumsum(count) - count)  # arc index less slot index
                arc = np.arange(slot.size) + first[slot]
                target = pair - u[slot] + head[arc]
                alt = flat[pair] + wt[arc]
                less = alt < flat[target]
                target = target[less]
                np.minimum.at(flat, target, alt[less])
                fell[target] = True
            frontier = np.flatnonzero(fell)
            fell[frontier] = False
    if np.isinf(flat).any():
        _dendrogram(labels, edges)  # raises DisconnectedGraph unless the edges join every vertex
        a, b = sorted(divmod(int(np.argmax(np.isinf(flat))), n))
        raise BadWeight(f"graph distance from {labels[a]!r} to {labels[b]!r} "
                        "overflows the largest float")
    out = np.minimum(out, out.T)  # symmetrise against fp asymmetry
    return DistanceMatrix(labels, out)


def _prim_edges(vals: np.ndarray) -> list:
    """Minimum spanning tree of the complete graph on a dense matrix.

    Prim's algorithm, weighted by the upper triangle of vals, in n - 1
    vectorised steps.  Returns the tree edges as (weight, i, j), i < j.
    """
    n = len(vals)
    if n < 2:
        return []
    w = np.triu(vals, 1)
    w = w + w.T
    best = w[0].copy()
    src = np.zeros(n, dtype=np.intp)
    rest = np.arange(1, n)
    edges = []
    while rest.size:
        at = int(np.argmin(best[rest]))
        k, rest = int(rest[at]), np.delete(rest, at)
        edges.append((float(best[k]), min(int(src[k]), k), max(int(src[k]), k)))
        closer = w[k] < best
        best[closer] = w[k][closer]
        src[closer] = k
    return edges


def subdominant_ultrametric(d: DistanceMatrix) -> UltrametricMatrix:
    """Largest ultrametric pointwise below d.

    Single-linkage agglomeration: two clusters merge at height d(i,j), and
    the merge height becomes the ultrametric value for every cross pair.
    Equivalently the minimax path distance in the complete graph weighted
    by d, read off its minimum spanning tree: the ``delta_matrix`` of the
    single-linkage tree, in d's label order.
    """
    dend = _dendrogram(d.labels, _prim_edges(d.values))
    rank = np.argsort(dend.slots)[[dend.leaves[label].start for label in d.labels]]
    return UltrametricMatrix(d.labels, dend.delta_matrix().values[np.ix_(rank, rank)])


# --- dendrogram ---------------------------------------------------------------


class DendrogramNode:
    """A ball: built from its merge radius and two or more children, or, as a
    leaf, from its label.  It belongs to the one tree built over it, which
    sets ``index`` (in ``nodes``), ``level``, ``parent`` and its range
    ``start:stop`` of ``order``."""

    index = level = start = stop = 0
    parent = _tree = _label = None
    children, radius = (), 0.0

    def __init__(self, radius: float, children):
        self.radius, self.children = radius, tuple(children)
        if len(self.children) < 2:
            raise ValueError("internal nodes need at least two children")
        self._key = min(c._key for c in self.children)  # str-smallest label below

    @classmethod
    def leaf(cls, label) -> "DendrogramNode":
        node = cls.__new__(cls)
        node._label, node._key = label, str(label)
        return node

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def label(self):
        if not self.is_leaf:
            raise ValueError("only leaves carry a single label")
        return self._label

    @functools.cached_property
    def members(self) -> frozenset:
        """The leaf labels below the node, from its range, built on first read."""
        return frozenset(self._tree.order[self.start:self.stop])


class Dendrogram:
    """Rooted tree of the balls of an ultrametric.

    Leaves are singletons at radius 0; every internal node merges its
    children at its radius, and radii strictly decrease towards the
    leaves.  The root is at level 0.  Children are kept sorted by their
    str-smallest label so that traversals are reproducible; ``nodes`` and
    ``order`` (the leaf labels) are in preorder, so a node is a range of it.
    ``labels`` lists them by rank, ties in preorder: labels[r] is order[slots[r]].
    A node of another tree is refused before it is written, and a tree that
    is refused claims none of its nodes.
    """

    def __init__(self, root: DendrogramNode):
        self.root = root
        nodes, order = [], []
        stack = [root]
        while stack:  # preorder with an explicit stack: no depth limit
            node = stack.pop()
            if node._tree is not None:
                raise ValueError("a node belongs to another dendrogram")
            if node.index < len(nodes) and nodes[node.index] is node:  # numbered in this walk
                raise ValueError("a node appears twice in the tree")
            node.index, node.start = len(nodes), len(order)
            nodes.append(node)
            if node.is_leaf:
                order.append(node.label)
                continue
            node.children = tuple(sorted(node.children, key=lambda c: c._key))
            for ch in node.children:
                if not ch.radius < node.radius:
                    raise ValueError("radii must strictly decrease towards the leaves")
            stack.extend(reversed(node.children))
        self.leaves: dict = {node.label: node for node in nodes if node.is_leaf}
        if len(self.leaves) != len(order):
            raise ValueError("a label appears on two leaves")
        root.level, root.parent = 0, None
        for node in nodes:  # parents before children; a node is the tree's once all checks pass
            node._tree = self
            for ch in node.children:
                ch.level, ch.parent = node.level + 1, node
        for node in reversed(nodes):  # children before parents
            node.stop = node.children[-1].stop if node.children else node.start + 1
        self.nodes: tuple = tuple(nodes)
        self.order: tuple = tuple(order)
        self.slots = np.array(sorted(range(len(order)), key=lambda k: str(order[k])), dtype=np.intp)
        self.slots.setflags(write=False)
        self.labels = tuple(order[k] for k in self.slots.tolist())

    def index_of(self, node: DendrogramNode) -> int:
        """Position of a node of this tree in ``nodes``; KeyError otherwise."""
        if node._tree is not self:
            raise KeyError("the node is not in this dendrogram")
        return node.index

    # -- queries ---------------------------------------------------------

    def internal_nodes(self) -> tuple:
        return tuple(n for n in self.nodes if not n.is_leaf)

    @property
    def max_level(self) -> int:
        return max(n.level for n in self.nodes)

    def delta(self, u, v) -> float:
        """Radius of the smallest ball (range) above u's leaf holding v's."""
        a, b = self.leaves[u], self.leaves[v].start
        while not a.start <= b < a.stop:
            a = a.parent
        return a.radius

    def delta_matrix(self) -> UltrametricMatrix:
        """In leaf order, each child's rows take its parent's radius on the
        parent's range left and right of its own; then read by rank."""
        vals = np.zeros((len(self.order), len(self.order)))
        for node in self.internal_nodes():
            for c in node.children:
                vals[c.start:c.stop, node.start:c.start] = node.radius
                vals[c.start:c.stop, c.stop:node.stop] = node.radius
        return UltrametricMatrix(self.labels, vals[np.ix_(self.slots, self.slots)])

    def branching(self) -> int:
        internal = self.internal_nodes()
        return max((len(n.children) for n in internal), default=1)


def _dendrogram(labels: tuple, edges) -> Dendrogram:
    """Single-linkage tree of labels joined by weighted edges, (height, i, j)
    rows over label positions.

    Kruskal's walk: the rows are sorted once by (height, i, j) with one
    ``np.lexsort`` and go through one union-find, and every edge that joins
    two clusters is a merge; on a minimum spanning tree every edge is one
    (Gower & Ross 1969).  The larger cluster keeps its root (i's on a tie).
    Clusters merging at equal heights join a single polytomous node, so
    the nodes are exactly the distinct balls and merge radii strictly
    decrease root-to-leaf.  The walk stops at the (n - 1)-th merge, after
    which no edge joins two clusters; DisconnectedGraph if the edges run
    out first.
    """
    if not labels:
        raise ValueError("no points to merge into a single root")
    height, first, second = np.asarray(edges, dtype=float).reshape(-1, 3).T
    order = np.lexsort((second, first, height))
    parent = list(range(len(labels)))
    size = [1] * len(labels)
    cluster = [DendrogramNode.leaf(l) for l in labels]  # by root
    pending: dict[int, list[DendrogramNode]] = {}  # root -> children at `radius`
    radius, keep, joins = None, 0, len(labels) - 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def flush():
        for r, group in pending.items():
            cluster[r] = DendrogramNode(radius, group)
        pending.clear()

    for height, i, j in zip(height[order].tolist(), first[order].astype(np.intp).tolist(),
                            second[order].astype(np.intp).tolist()):
        if not joins:
            break
        keep, gone = find(i), find(j)
        if keep == gone:
            continue
        if size[keep] < size[gone]:
            keep, gone = gone, keep
        if height <= 0:
            raise ValueError("distinct points at ultrametric distance 0")
        if height != radius:
            flush()
            radius = height
        group = pending.setdefault(keep, [cluster[keep]])
        group.extend(pending.pop(gone, [cluster[gone]]))
        size[keep] += size[gone]
        parent[gone] = keep
        joins -= 1
    if joins:
        raise DisconnectedGraph("graph is not connected")
    flush()
    return Dendrogram(cluster[keep])


def build_dendrogram(delta: UltrametricMatrix) -> Dendrogram:
    """Tree of the distinct balls of an ultrametric, from the single-linkage
    merges along the minimum spanning tree of its dense matrix."""
    return _dendrogram(delta.labels, _prim_edges(delta.values))


def graph_dendrogram(graph, weights: Mapping | None = None) -> Dendrogram:
    """Dendrogram of the subdominant ultrametric of a graph's path metric.

    That ultrametric is the minimax path distance, so single linkage over
    the graph's own |E| edges gives the same tree, radii and
    ``delta_matrix()`` as ``build_dendrogram(subdominant_ultrametric(
    graph_distances(graph, weights)))``, bit for bit, with no all-pairs
    distances: on a minimum spanning tree edge the shortest path is the
    edge itself.  Takes the graph as ``graph_distances`` does and raises
    the same BadWeight for a weight or key and DisconnectedGraph; it sums
    no weights, so no distance overflows.
    """
    return _dendrogram(*_graph_edges(graph, weights))


def minimal_cluster(dend: Dendrogram, x) -> frozenset:
    """Smallest non-singleton ball containing leaf x: the member set of its
    parent node.  A single-vertex tree degenerately returns {x}."""
    leaf = dend.leaves[x]
    return (leaf.parent or leaf).members
