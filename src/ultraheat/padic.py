"""Finite-precision p-adic cells, dendrogram embeddings, and the tree measure.

A cell is a coset of p^n Z_p inside the p-adic integers, identified by its
n base-p digits.  A dendrogram embeds into the tree of such cells: every
node becomes a ball, children branch on distinct digits, and all leaf
discs share one radius exponent m.  Internal nodes are placed at the
depth given by the rank of their merge radius among all distinct radii,
so that the p-adic distance between two leaf discs determines the
ultrametric distance through a single strictly increasing lookup table.

The tree measure gives the root mass 1 and splits every node's mass
equally among its children, kept in exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import LevelTooCoarse, PrimeMismatch
from .multitopo import is_prime
from .ultraindex import Dendrogram, DendrogramNode


@dataclass(frozen=True)
class PAdicCell:
    """A ball of radius p^-n in Z_p, given by its n leading digits."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        for d in self.digits:
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} out of range for p={self.p}")

    @property
    def level(self) -> int:
        return len(self.digits)

    def child(self, digit: int) -> "PAdicCell":
        return PAdicCell(self.p, self.digits + (digit,))

    def extended(self, level: int) -> "PAdicCell":
        """Zero-padded representative cell at a finer level."""
        if level < self.level:
            raise ValueError("cannot extend to a coarser level")
        return PAdicCell(self.p, self.digits + (0,) * (level - self.level))

    def contains(self, other: "PAdicCell") -> bool:
        return other.level >= self.level and other.digits[: self.level] == self.digits

    def __str__(self):
        return "".join(str(d) for d in self.digits) or "()"


def common_prefix_length(x: PAdicCell, y: PAdicCell) -> int:
    j = 0
    for a, b in zip(x.digits, y.digits):
        if a != b:
            break
        j += 1
    return j


def padic_distance(x: PAdicCell, y: PAdicCell) -> float:
    """p^-j with j the common digit prefix length; 0 between equal cells."""
    if x.p != y.p:
        raise PrimeMismatch(f"cells over p={x.p} and p={y.p}")
    if x.level != y.level:
        raise ValueError("cells must share a level")
    if x.digits == y.digits:
        return 0.0
    return float(x.p) ** -common_prefix_length(x, y)


def smallest_prime_at_least(k: int) -> int:
    q = max(2, k)
    while not is_prime(q):
        q += 1
    return q


@dataclass(frozen=True)
class DiscAssignment:
    """The p-adic disc of every dendrogram node, plus the radius lookup.

    ``rho`` pairs each realised p-adic distance p^-k with the ultrametric
    radius of the nodes placed at depth k, strictly increasing in both
    coordinates, so that for points x, y in distinct leaf discs
    rho(|x-y|_p) equals the ultrametric distance of the leaves.
    """

    dendrogram: Dendrogram
    p: int
    m: int
    discs: Mapping  # leaf label -> PAdicCell (level m)
    node_cells: Mapping  # id(node) -> PAdicCell
    rho: tuple  # ((p^-k, radius), ...) with distances decreasing

    def cell_of(self, node: DendrogramNode) -> PAdicCell:
        return self.node_cells[id(node)]

    def rho_of(self, distance: float) -> float:
        for dist, radius in self.rho:
            if dist == distance:
                return radius
        raise KeyError(f"p-adic distance {distance} not realised between vertex discs")

    def vertex_of(self, cell: PAdicCell):
        """Leaf label whose disc contains the cell, or None."""
        if cell.level < self.m:
            return None
        prefix = cell.digits[: self.m]
        label = self._prefix_map().get(prefix)
        return label

    def _prefix_map(self) -> dict:
        cached = getattr(self, "_prefixes", None)
        if cached is None:
            cached = {self.discs[l].digits: l for l in self.discs}
            object.__setattr__(self, "_prefixes", cached)
        return cached

    @property
    def labels(self) -> tuple:
        return tuple(sorted(self.discs, key=str))


def embed(dend: Dendrogram, p: int | None = None) -> DiscAssignment:
    """Embed a dendrogram as disjoint equal-radius discs in Z_p.

    p defaults to the smallest prime at least the maximal branching
    factor.  A node with merge radius of rank k (radii sorted decreasing)
    sits at depth k; the common leaf depth m is the number of distinct
    internal radii, which keeps all leaf discs disjoint.
    """
    branching = dend.branching()
    if p is None:
        p = smallest_prime_at_least(branching)
    else:
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p < branching:
            raise ValueError(f"p={p} is below the branching factor {branching}")
    radii = sorted({n.radius for n in dend.internal_nodes()}, reverse=True)
    rank = {r: k for k, r in enumerate(radii)}
    m = len(radii)

    node_cells = {id(dend.root): PAdicCell(p, ())}
    discs: dict = {}
    for node in dend.nodes:  # parents before children
        cell = node_cells[id(node)]
        if node.is_leaf:
            discs[node.label] = cell
            continue
        assert cell.level == rank[node.radius]
        for idx, child in enumerate(node.children):
            child_depth = m if child.is_leaf else rank[child.radius]
            node_cells[id(child)] = cell.child(idx).extended(child_depth)

    rho = tuple((float(p) ** -k, radii[k]) for k in range(m))
    return DiscAssignment(dend, p, m, discs, node_cells, rho)


@dataclass(frozen=True)
class TreeMeasure:
    """Node masses of the equal-split measure, exact rationals, total 1."""

    dendrogram: Dendrogram
    masses: Mapping  # id(node) -> Fraction

    def of(self, node: DendrogramNode) -> Fraction:
        return self.masses[id(node)]

    def float_of(self, node: DendrogramNode) -> float:
        return float(self.masses[id(node)])

    def leaf_mass(self, label) -> Fraction:
        return self.masses[id(self.dendrogram.leaves[label])]


def tree_measure(dend: Dendrogram) -> TreeMeasure:
    masses: dict[int, Fraction] = {id(dend.root): Fraction(1)}
    for node in dend.nodes:
        if node.is_leaf:
            continue
        share = masses[id(node)] / len(node.children)
        for child in node.children:
            masses[id(child)] = share
    return TreeMeasure(dend, masses)


@dataclass(frozen=True)
class Discretization:
    """All level-n cells of the domain, leaf by leaf, in digit order."""

    assignment: DiscAssignment
    level: int
    cells: tuple  # PAdicCell at the common level
    leaf_labels: tuple  # label of the disc containing each cell

    _index: dict = field(default=None, repr=False, compare=False)
    _digits: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {c.digits: i for i, c in enumerate(self.cells)})

    def __len__(self) -> int:
        return len(self.cells)

    def index_of(self, cell: PAdicCell) -> int:
        return self._index[cell.digits]

    @property
    def p(self) -> int:
        return self.assignment.p

    def haar_volumes(self) -> np.ndarray:
        return np.full(len(self.cells), float(self.p) ** -self.level)

    @property
    def vol_z(self) -> float:
        return len(self.assignment.discs) * float(self.p) ** -self.assignment.m

    def nu_volumes(self, measure: TreeMeasure) -> np.ndarray:
        """Leaf mass split equally over the leaf's level-n cells."""
        per_leaf = self.p ** (self.level - self.assignment.m)
        out = np.empty(len(self.cells))
        for i, label in enumerate(self.leaf_labels):
            out[i] = float(measure.leaf_mass(label) / per_leaf)
        return out

    def digit_matrix(self) -> np.ndarray:
        """The cells' digits as a read-only N x level array, built on first use."""
        if self._digits is None:
            digits = np.array([c.digits for c in self.cells], dtype=np.int64)
            digits.setflags(write=False)
            object.__setattr__(self, "_digits", digits)
        return self._digits


def cell_count(assign: DiscAssignment, n: int) -> int:
    """Number |V| * p^(n-m) of level-n cells in the vertex discs (n > m),
    checked against the dense-matrix limit without building any cell."""
    from .operators import _check_dense  # operators imports this module

    if n <= assign.m:
        raise LevelTooCoarse(f"level {n} is not finer than the vertex discs (m={assign.m})")
    count = len(assign.discs) * assign.p ** (n - assign.m)
    _check_dense(count)
    return count


def discretize(assign: DiscAssignment, n: int) -> Discretization:
    """Enumerate the level-n cells inside every vertex disc (n > m)."""
    cell_count(assign, n)
    cells: list[PAdicCell] = []
    labels: list = []
    for label in assign.labels:
        prefix = assign.discs[label]
        for suffix in itertools.product(range(assign.p), repeat=n - assign.m):
            cells.append(PAdicCell(assign.p, prefix.digits + suffix))
            labels.append(label)
    return Discretization(assign, n, tuple(cells), tuple(labels))
