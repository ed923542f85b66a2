"""Finite-precision p-adic cells, dendrogram embeddings, and the tree measure.

A cell is a coset of p^n Z_p inside the p-adic integers, identified by its
n base-p digits.  A dendrogram embeds into the tree of such cells: every
node becomes a ball, children branch on distinct digits, and all leaf
discs share one radius exponent m.  Internal nodes are placed at the
depth given by the rank of their merge radius among all distinct radii,
so that the p-adic distance between two leaf discs determines the
ultrametric distance through a single strictly increasing function.  An
assignment keeps only that depth per node; a node's digits are its
branch index below each ancestor, at the ancestor's depth, and 0 elsewhere,
built when a cell is read.

The tree measure gives the root mass 1 and splits every node's mass
equally among its children, kept in exact rationals; an assignment builds
it once, on first read (``DiscAssignment.nu``).  Node depths and masses
are tuples indexed by ``node.index``.

The operators act on one cell domain (``CellDomain``): disjoint balls,
each cut into its level-n cells, numbered ball by ball in digit order.
Every ball inside one of them is a contiguous range of cells, so a
domain keeps per-cell integer arrays, its lookups are arithmetic on them
and on its block balls, and it builds no level-n cell.  ``PAdicCell`` is
the value type of a single ball, which the lookups (``index_of``,
``ball_range``) take.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

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
        digits = tuple(map(int, self.digits))
        object.__setattr__(self, "digits", digits)
        if digits and not (min(digits) >= 0 and max(digits) < self.p):
            bad = next(d for d in digits if not 0 <= d < self.p)
            raise ValueError(f"digit {bad} out of range for p={self.p}")

    @property
    def level(self) -> int:
        return len(self.digits)

    def __str__(self):
        return "".join(str(d) for d in self.digits) or "()"


def padic_distance(x: PAdicCell, y: PAdicCell) -> float:
    """p^-j with j the common digit prefix length; 0 between equal cells."""
    if x.p != y.p:
        raise PrimeMismatch(f"cells over p={x.p} and p={y.p}")
    if x.level != y.level:
        raise ValueError("cells must share a level")
    if x.digits == y.digits:
        return 0.0
    return float(x.p) ** -next(j for j, (a, b) in enumerate(zip(x.digits, y.digits)) if a != b)


def smallest_prime_at_least(k: int) -> int:
    q = max(2, k)
    while not is_prime(q):
        q += 1
    return q


@dataclass(frozen=True)
class DiscAssignment:
    """The depth of every dendrogram node in Z_p, indexed by ``node.index``:
    an internal node's is the rank of its radius (radii sorted decreasing),
    a leaf's is m.  For points x, y in distinct leaf discs |x-y|_p = p^-k,
    with k the depth of the leaves' lowest common ancestor, so |x-y|_p is
    a strictly increasing function of that node's radius, the leaves'
    ultrametric distance.

    Digits are built only when read: the leaf discs and the prefix map of
    ``vertex_of`` on first read, a node's ball (``cell_of``) from them.
    """

    dendrogram: Dendrogram
    p: int
    m: int
    depths: tuple  # int per node, indexed by node.index

    @functools.cached_property
    def discs(self) -> dict:
        """Leaf label -> its disc (level m), built on first read in one walk
        down the tree: a child's digits are its parent's, its branch index
        at the parent's depth, and zeros up to its own depth."""
        discs, stack = {}, [(self.dendrogram.root, ())]
        while stack:
            node, digits = stack.pop()
            if node.is_leaf:
                discs[node.label] = PAdicCell(self.p, digits)
            for idx, child in enumerate(node.children):
                pad = (0,) * (self.depths[child.index] - len(digits) - 1)
                stack.append((child, digits + (idx,) + pad))
        return discs

    def cell_of(self, node: DendrogramNode) -> PAdicCell:
        """The node's ball: the leading digits, to the node's depth, of the
        disc of any leaf below it."""
        depth = self.depths[self.dendrogram.index_of(node)]
        return PAdicCell(self.p, self.discs[self.dendrogram.order[node.start]].digits[:depth])

    def vertex_of(self, cell: PAdicCell):
        """Leaf label whose disc contains the cell, or None."""
        if cell.level < self.m:
            return None
        return self._prefix_map.get(cell.digits[: self.m])

    @functools.cached_property
    def _prefix_map(self) -> dict:
        return {cell.digits: label for label, cell in self.discs.items()}

    @property
    def labels(self) -> tuple:
        return self.dendrogram.labels

    @functools.cached_property
    def nu(self) -> "TreeMeasure":
        """The tree measure of the dendrogram, built on first read."""
        return tree_measure(self.dendrogram)


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
    return DiscAssignment(dend, p, m, tuple(m if n.is_leaf else rank[n.radius] for n in dend.nodes))


@dataclass(frozen=True)
class TreeMeasure:
    """Node masses of the equal-split measure, exact rationals, total 1."""

    dendrogram: Dendrogram
    masses: tuple  # Fraction per node, indexed by node.index

    def of(self, node: DendrogramNode) -> Fraction:
        return self.masses[self.dendrogram.index_of(node)]

    def leaf_mass(self, label) -> Fraction:
        return self.masses[self.dendrogram.leaves[label].index]


def tree_measure(dend: Dendrogram) -> TreeMeasure:
    masses = [Fraction(1)] * len(dend.nodes)
    for node in dend.nodes:  # parents before children
        if node.is_leaf:
            continue
        share = masses[node.index] / len(node.children)
        for child in node.children:
            masses[child.index] = share
    return TreeMeasure(dend, tuple(masses))


@dataclass(frozen=True)
class CellDomain:
    """The level-n cells of disjoint balls of level <= m (the blocks), block
    by block and in digit order inside a block, so every ball inside a
    block is one contiguous range of cells.

    ``discretize`` has one block per vertex disc (``cut_level`` None);
    ``operators.truncated_domain`` one per cut node, with filler cells
    outside the vertex discs.  Per cell: ``leaf_index`` (position of its
    disc in ``assignment.labels``, -1 for filler) and ``block_index``; per
    disc: ``leaf_start``, its first cell (-1 outside the domain).
    """

    assignment: DiscAssignment
    level: int
    balls: tuple  # PAdicCell per block, in domain order
    cut_level: int | None = None

    leaf_index: np.ndarray = field(init=False, repr=False, compare=False)
    block_index: np.ndarray = field(init=False, repr=False, compare=False)
    leaf_start: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: tuple = field(init=False, repr=False, compare=False)
    _sorted_balls: tuple = field(init=False, repr=False, compare=False)
    _digits: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, balls, assign = self.level, tuple(self.balls), self.assignment
        sizes = [self.p ** (n - ball.level) for ball in balls]
        order = sorted(range(len(balls)), key=lambda k: balls[k].digits)
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "_offsets", (0, *itertools.accumulate(sizes)))
        object.__setattr__(self, "_sorted_balls", ([balls[k].digits for k in order], order))
        discs = [self.ball_range(assign.discs[label]) for label in assign.labels]
        starts = np.array([r.start if r else -1 for r in discs], dtype=np.int64)
        unit = self.p ** (n - assign.m)
        inside = np.flatnonzero(starts >= 0)
        leaf = np.full(len(self), -1, dtype=np.int64)
        leaf[(starts[inside, None] + np.arange(unit)).ravel()] = np.repeat(inside, unit)
        block = np.repeat(np.arange(len(balls), dtype=np.int64), sizes)
        for name, arr in (("leaf_index", leaf), ("block_index", block), ("leaf_start", starts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self._offsets[-1]

    @property
    def p(self) -> int:
        return self.assignment.p

    def ball_range(self, ball: PAdicCell) -> range:
        """The cells of a ball that lies in one block (empty otherwise): the
        block's offset plus the ball's digits below the block, in base p."""
        keys, order = self._sorted_balls
        pos = bisect.bisect_right(keys, ball.digits) - 1  # the only block that can hold it
        b = len(keys[pos]) if pos >= 0 else 0
        if pos < 0 or ball.p != self.p or ball.digits[:b] != keys[pos] or ball.level > self.level:
            return range(0)
        r = 0
        for d in ball.digits[b:]:
            r = r * self.p + d
        size = self.p ** (self.level - ball.level)
        return range(self._offsets[order[pos]] + r * size, self._offsets[order[pos]] + (r + 1) * size)

    def index_of(self, cell: PAdicCell) -> int:
        cells = self.ball_range(cell) if cell.level == self.level else range(0)
        if not cells:
            raise KeyError(f"cell {cell} is not in the domain")
        return cells.start

    def positions_in(self, other: "CellDomain") -> np.ndarray:
        """Index in ``other`` of each cell, all of which lie in vertex discs
        that ``other`` holds at the same level."""
        return np.arange(len(self)) + (other.leaf_start - self.leaf_start)[self.leaf_index]

    def pure_balls(self) -> tuple[np.ndarray, np.ndarray]:
        """The maximal balls inside the blocks on which ``leaf_index`` is
        constant (part of one vertex disc, or all filler), in domain order,
        as the arrays of their first cells and their levels: one stack walk
        per block that splits every ball whose cells change leaf into its p
        children.  On a discretisation these are the discs."""
        p, n = self.p, self.level
        changes = np.concatenate([[0], np.cumsum(self.leaf_index[1:] != self.leaf_index[:-1])])
        starts, levels = [], []
        for ball, offset in zip(self.balls, self._offsets):
            stack = [(offset, ball.level)]
            while stack:
                start, d = stack.pop()
                size = p ** (n - d)
                if changes[start + size - 1] == changes[start]:
                    starts.append(start)
                    levels.append(d)
                else:
                    step = size // p
                    stack.extend((start + a * step, d + 1) for a in reversed(range(p)))
        return np.array(starts, dtype=np.int64), np.array(levels, dtype=np.int64)

    def haar_volumes(self) -> np.ndarray:
        return np.full(len(self), float(self.p) ** -self.level)

    def nu_volumes(self) -> np.ndarray:
        """The assignment's tree measure of each leaf, split equally over the
        leaf's level-n cells; filler has none."""
        per_leaf = self.p ** (self.level - self.assignment.m)
        nu = self.assignment.nu
        masses = [float(nu.leaf_mass(label) / per_leaf) for label in self.assignment.labels]
        return np.array(masses + [0.0])[self.leaf_index]

    @property
    def vol_z(self) -> float:
        return int(np.count_nonzero(self.leaf_index >= 0)) * float(self.p) ** -self.level

    @property
    def vol_filler(self) -> float:
        return len(self) * float(self.p) ** -self.level - self.vol_z

    def digit_matrix(self) -> np.ndarray:
        """The cells' digits as a read-only N x level array, built on first
        use: block ball digits plus the offset in the block in base p."""
        if self._digits is None:
            p, n = self.p, self.level
            digits = np.zeros((len(self.balls), n), dtype=np.int64)
            for k, ball in enumerate(self.balls):
                digits[k, : ball.level] = ball.digits
            digits = digits[self.block_index]
            width = n - min((ball.level for ball in self.balls), default=n)
            offset = np.arange(len(self)) - np.array(self._offsets[:-1])[self.block_index]
            digits[:, n - width:] += offset[:, None] // p ** np.arange(width - 1, -1, -1) % p
            digits.setflags(write=False)
            object.__setattr__(self, "_digits", digits)
        return self._digits


def cell_count(assign: DiscAssignment, n: int) -> int:
    """Number |V| * p^(n-m) of level-n cells in the vertex discs (n > m),
    checked against the dense-matrix limit without building any cell.
    Its log is compared with the limit's first, so that a count past both
    the limit and 10^16 is refused, as about 10^(its log10), before
    p^(n - m) is formed."""
    from . import operators  # operators imports this module

    if n <= assign.m:
        raise LevelTooCoarse(f"level {n} is not finer than the vertex discs (m={assign.m})")
    digits, vertices = n - assign.m, len(assign.labels)
    operators._check_log_count(math.log10(vertices) + digits * math.log10(assign.p))
    count = vertices * assign.p ** digits
    operators._check_dense(count)
    return count


def discretize(assign: DiscAssignment, n: int) -> CellDomain:
    """The level-n cells of every vertex disc (n > m), one block per disc
    in label order."""
    cell_count(assign, n)
    return CellDomain(assign, n, tuple(assign.discs[label] for label in assign.labels))
