"""Jump kernels over the embedded domain and their exact finite generators.

Rates between points in the same vertex disc follow the Vladimirov kernel
|x-y|_p^(-alpha); rates between different discs are constant per vertex
pair and come from one of three sources: the (weighted) adjacency matrix,
the shortest-path graph distance, or the subdominant ultrametric.  On
functions locally constant at level n the integral operator is realised
exactly by a finite matrix with off-diagonal entries rate * measure and
zero row sums.

Tree truncation cuts the dendrogram at a level, replaces every rate
inside a cut node's ball by the Vladimirov rate, and widens the domain by
the filler cells of the cut balls not covered by any vertex disc.

Both domains are one ``padic.CellDomain``, with a block per vertex disc
or per cut node; the domain is the one handle on its assignment, and the
tree measure is the assignment's own (``measure="nu"``).  A block's cells
are numbered in digit order, so two of them share the block ball's level
plus the common prefix of their offsets in the block: one Vladimirov
table per ball level serves every block of that level.  A malformed
kernel base, labels that differ from the assignment, or an unknown
measure raise ``BadKernel`` (exit 25).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadAlpha, BadKernel, CellOutsideZ, InvalidLevel, RateOverflow, TooManyCells
from .padic import CellDomain, DiscAssignment, PAdicCell, padic_distance


class Bullet(str, Enum):
    ADJACENCY = "adjacency"
    GRAPH_DISTANCE = "graphdist"
    ULTRAMETRIC = "ultrametric"


@dataclass(frozen=True)
class KernelSpec:
    """Cross-disc interaction: base matrix and exponent.

    Rates between distinct vertices v, w are base(v,w)^(-alpha); a zero
    base entry means no interaction (only allowed for the adjacency
    bullet, where zero marks a non-edge).  Rates may exceed 1: only
    non-negativity matters downstream.
    """

    bullet: Bullet
    alpha: float
    labels: tuple
    base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        base = np.asarray(self.base, dtype=float)
        base.setflags(write=False)
        object.__setattr__(self, "base", base)
        if not 1 <= self.alpha < math.inf:
            raise BadAlpha(f"alpha must be a finite number >= 1, got {self.alpha}")
        n = len(self.labels)
        if base.shape != (n, n):
            raise BadKernel("base matrix shape does not match labels")
        if not np.allclose(base, base.T, rtol=0, atol=0):
            raise BadKernel("base matrix must be symmetric")
        if np.any(base < 0):
            raise BadKernel("base matrix must be non-negative")
        if self.bullet is not Bullet.ADJACENCY:
            off = base[~np.eye(n, dtype=bool)]
            if n > 1 and np.any(off == 0):
                raise BadKernel(f"{self.bullet.value} base must be positive off the diagonal")

    def cross_rates(self) -> np.ndarray:
        """k(v,w) = base^(-alpha) off the diagonal, 0 where base is 0."""
        rates = np.zeros_like(self.base)
        mask = self.base > 0
        rates[mask] = self.base[mask] ** -self.alpha
        np.fill_diagonal(rates, 0.0)
        return rates

    def label_index(self) -> dict:
        return {l: i for i, l in enumerate(self.labels)}


def _leaf_indices(spec: KernelSpec, dom: CellDomain) -> np.ndarray:
    """Position in ``spec.labels`` of the vertex disc of every cell, -1 for
    filler."""
    if set(spec.labels) != set(dom.assignment.labels):
        raise BadKernel("kernel labels do not match the disc assignment")
    idx = spec.label_index()
    per_leaf = [idx[label] for label in dom.assignment.labels]
    return np.array(per_leaf + [-1])[dom.leaf_index]


def _disc_shifts(spec: KernelSpec, assign: DiscAssignment, measure: str,
                 block: np.ndarray | None = None):
    """Per disc in ``spec.labels`` order: its mass, its measure density s_v
    and its escape rate sum_w k(v,w) mass(U_w), summed left to right over
    the discs w outside v's block (``block``: one id per disc; default all)."""
    if measure == "haar":
        mass = np.full(len(spec.labels), float(assign.p) ** -assign.m)
        scale = np.ones(len(spec.labels))
    elif measure == "nu":
        mass = np.array([float(assign.nu.leaf_mass(w)) for w in spec.labels])
        scale = mass * np.float64(assign.p) ** assign.m  # inf, not OverflowError, past the range
    else:
        raise BadKernel(f"unknown measure {measure!r}")
    terms = spec.cross_rates() * mass[None, :]
    if block is not None:
        terms[block[:, None] == block[None, :]] = 0.0
    return mass, scale, np.cumsum(terms, axis=1)[:, -1]


def _disc_rates(spec: KernelSpec, dom: CellDomain, measure: str):
    """``_disc_shifts`` with each disc's escape taken out of its block, and
    the domain's largest generator entry, from p, alpha, n and the disc
    masses, before any N x N array; RateOverflow unless that entry and the
    largest rate p^((n - 1) alpha) (distinct level-n cells share at most
    n - 1 digits) are finite.  The entry is the largest total rate out of a
    cell: on disc v in a block of level b, s_v (1 - 1/p) sum_{j=b}^{n-1}
    p^(j (alpha - 1)) over the shells of cells sharing j digits with it,
    plus its escape rate; filler has less."""
    p, n, alpha = dom.p, dom.level, spec.alpha
    leaf = _leaf_indices(spec, dom)
    block = np.full(len(spec.labels), -1, dtype=np.int64)
    block[leaf[leaf >= 0]] = dom.block_index[leaf >= 0]
    levels = np.array([ball.level for ball in dom.balls], dtype=np.int64)[block]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: RateOverflow below
        mass, scale, escape = _disc_shifts(spec, dom.assignment, measure, block)
        shells = (1 - 1 / p) * np.float64(p) ** (np.arange(n) * (alpha - 1))
        tails = np.append(np.cumsum(shells[::-1])[::-1], 0.0)  # tails[b]: shells b .. n - 1
        entry = np.max((scale * tails[levels] + escape)[block >= 0], initial=0.0)
        if not np.isfinite(np.float64(p) ** ((n - 1) * alpha)):
            raise RateOverflow(f"the jump rate {p}^({n - 1} * {alpha:g}) at level {n} overflows a "
                               "float; choose a coarser level or a smaller alpha")
    if not np.isfinite(entry):
        raise RateOverflow(f"a generator entry at level {n} overflows a float")
    return mass, scale, escape, float(entry)


def _cross_rates(spec: KernelSpec) -> np.ndarray:
    """The cross rates with a zero last row and column, which filler (-1)
    takes."""
    cross = np.zeros((len(spec.labels) + 1,) * 2)
    cross[:-1, :-1] = spec.cross_rates()
    return cross


def _prefix_table(p: int, ball_level: int, level: int) -> np.ndarray:
    """Common digit-prefix length of every pair of level-n cells of one ball
    of level b, in digit order: kron(I_p, j + 1) applied n - b times to
    [[0]], plus b.  The same table serves every ball of that level."""
    j = np.zeros((1, 1), dtype=np.int64)
    for _ in range(level - ball_level):
        j = np.kron(np.eye(p, dtype=np.int64), j + 1)
    return j + ball_level


def kernel_rows(spec: KernelSpec, disc: CellDomain, blocks):
    """Yield (cells, k_p[cells, :]) for each range ``cells`` of ``blocks``,
    each a run of whole domain blocks (vertex discs, or the cut balls of a
    truncated domain): the cross rate between the discs of its cells and
    every other cell's (none from filler), overwritten on each block's own
    cells by the Vladimirov rates of one prefix table per ball level; zero
    on the diagonal, whose prefix n is clipped to n - 1 first (p^(n alpha)
    may overflow a float).  k_p is symmetric: the base is checked
    symmetric, and so is every prefix table."""
    leaf_idx = _leaf_indices(spec, disc)
    cross = _cross_rates(spec)
    starts = np.flatnonzero(np.diff(disc.block_index, prepend=-1)).tolist() + [len(disc)]
    tables: dict = {}
    for cells in blocks:
        rows = cross[leaf_idx[cells.start:cells.stop]].take(leaf_idx, axis=1)
        for b in range(disc.block_index[cells.start], disc.block_index[cells.stop - 1] + 1):
            level = disc.balls[b].level
            if level not in tables:
                j = np.minimum(_prefix_table(disc.p, level, disc.level), disc.level - 1)
                tables[level] = (float(disc.p) ** -j) ** -spec.alpha
            start, stop = starts[b], starts[b + 1]
            rows[start - cells.start:stop - cells.start, start:stop] = tables[level]
        rows[np.arange(len(cells)), cells] = 0.0
        yield cells, rows


def kernel_matrix(spec: KernelSpec, disc: CellDomain) -> np.ndarray:
    """k_p over all cell pairs: ``kernel_rows`` of one block of every row."""
    return next(kernel_rows(spec, disc, [range(len(disc))]))[1]


def kernel_value(spec: KernelSpec, assign: DiscAssignment, x: PAdicCell, y: PAdicCell) -> float:
    """Rate between two distinct same-level cells of the domain."""
    vx = assign.vertex_of(x)
    vy = assign.vertex_of(y)
    if vx is None or vy is None:
        raise CellOutsideZ("cell lies outside every vertex disc")
    if x.digits == y.digits:
        raise ValueError("kernel_value requires distinct cells")
    if vx == vy:
        return padic_distance(x, y) ** -spec.alpha
    idx = spec.label_index()
    return float(spec.cross_rates()[idx[vx], idx[vy]])


@dataclass(frozen=True)
class GeneratorMatrix:
    """Finite generator: off-diagonal rate*measure, zero row sums."""

    matrix: np.ndarray
    measure: np.ndarray  # per-cell masses

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        mu = np.asarray(self.measure, dtype=float)
        mu.setflags(write=False)
        object.__setattr__(self, "measure", mu)

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[0]

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1))))


MAX_DENSE_CELLS = 10_000
BLOCK_ENTRIES = 1 << 15  # 256 kB of float64: the size of a block of rows, or of discs' work


def _check_dense(n_cells: int) -> None:
    if n_cells > MAX_DENSE_CELLS:
        _too_many_cells(f"{n_cells}" if n_cells < 10**15 else f"about 10^{math.log10(n_cells):.1f}")


def _too_many_cells(count: str):
    raise TooManyCells(
        f"{count} cells exceed the dense-matrix limit of {MAX_DENSE_CELLS}; "
        "choose a coarser level"
    )


def generator_rows(spec: KernelSpec, disc: CellDomain, measure: str, blocks):
    """Check the rates, then return a function that yields, afresh at each
    call, (cells, A[cells, :], A[:, cells].T) for each range ``cells`` of
    ``blocks`` (runs of whole domain blocks, as ``kernel_rows`` takes), with
    A the exact matrix of the jump operator on level-n locally constant
    functions: off-diagonal rate * measure, zero row sums.  As k_p is
    symmetric, A's column block is its kernel row block scaled by the
    block's own cell masses, with the row block's diagonal: two
    len(cells) x N arrays per block."""
    mvec = _measure_vector(disc, measure)
    _disc_rates(spec, disc, measure)

    def rows():
        for cells, block in kernel_rows(spec, disc, blocks):
            diag = (np.arange(len(cells)), cells)
            cols = block * mvec[cells.start:cells.stop, None]
            block *= mvec[None, :]
            block[diag] = 0.0
            block[diag] = cols[diag] = -block.sum(axis=1)
            yield cells, block, cols

    return rows


def generator(spec: KernelSpec, disc: CellDomain, measure: str = "haar") -> GeneratorMatrix:
    """Exact matrix of the jump operator on level-n locally constant functions:
    ``generator_rows`` of one block of every row.

    ``disc`` is a discretisation or a truncated domain; the latter takes
    the Haar measure only, the former also its assignment's tree measure
    ("nu").  The cell count and the rates are checked before any N x N
    array is allocated.
    """
    _check_dense(len(disc))
    _, A, _ = next(generator_rows(spec, disc, measure, [range(len(disc))])())
    return GeneratorMatrix(A, _measure_vector(disc, measure))


def _measure_vector(disc: CellDomain, measure: str):
    if measure == "haar":
        return disc.haar_volumes()
    if measure == "nu":
        if disc.cut_level is not None:
            raise ValueError("truncated domains are discretised with the Haar measure")
        return disc.nu_volumes()
    raise BadKernel(f"unknown measure {measure!r}")


def degree(spec: KernelSpec, disc: CellDomain, x: PAdicCell, measure: str = "haar") -> float:
    """Total jump rate out of cell x (off-diagonal row sum of the generator):
    x's row of the cross rates, overwritten on x's block by its row of the
    block's prefix table."""
    i = disc.index_of(x)
    mvec = _measure_vector(disc, measure)
    leaf_idx = _leaf_indices(spec, disc)
    rates = _cross_rates(spec)[leaf_idx[i], leaf_idx]
    ball = disc.balls[disc.block_index[i]]
    cells = disc.ball_range(ball)
    j = _prefix_table(disc.p, ball.level, disc.level)[i - cells.start]
    j = np.minimum(j, disc.level - 1)  # x with itself: no rate to raise (it is zeroed next)
    rates[cells.start:cells.stop] = (float(disc.p) ** -j) ** -spec.alpha
    rates[i] = 0.0
    return float(rates @ mvec)


# --- tree truncation ------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedKernel:
    """The cut kernel: Vladimirov inside every cut ball, untouched across."""

    spec: KernelSpec
    domain: CellDomain

    def max_rate_z_to_filler(self) -> float:
        """The largest rate between a disc cell and a filler cell, 0 without
        filler.  Filler meets discs only inside a cut ball, at the Vladimirov
        rate of their common prefix.  A filler pure ball of level d shares
        d - 1 digits with a disc cell of its parent ball, which is not pure,
        and no more with any, so the longest prefix is the deepest filler
        pure ball's level minus one."""
        starts, levels = self.domain.pure_balls()
        filler = levels[self.domain.leaf_index[starts] < 0]
        if not filler.size:
            return 0.0
        j = int(filler.max()) - 1
        return float((float(self.domain.p) ** -j) ** -self.spec.alpha)


def cut_nodes(assign: DiscAssignment, ell: int):
    dend = assign.dendrogram
    max_level = dend.max_level
    if not 0 < ell <= max_level:
        raise InvalidLevel(f"cut level {ell} outside 1..{max_level}")
    chosen = [
        node
        for node in dend.nodes
        if node.level == ell or (node.is_leaf and node.level < ell)
    ]
    chosen.sort(key=lambda n: str(dend.order[n.start]))  # str-smallest label, not preorder
    return chosen


def truncated_domain(
    assign: DiscAssignment,
    ell: int,
    level: int | None = None,
    spec: KernelSpec | None = None,
) -> tuple[CellDomain, "TruncatedKernel | None"]:
    """The cells of the cut-node balls at the given cell level: one block
    per cut node (the dendrogram nodes at the cut level plus the leaves
    above it), so cells outside every vertex disc are filler.

    Returns the domain and, when a KernelSpec is supplied, the cut kernel
    acting on it; the domain can also be passed straight to ``generator``.
    """
    n = assign.m + 1 if level is None else level
    if n <= assign.m:
        raise InvalidLevel(f"cell level {n} is not finer than the vertex discs (m={assign.m})")
    balls = tuple(assign.cell_of(node) for node in cut_nodes(assign, ell))
    _check_dense(sum(assign.p ** (n - ball.level) for ball in balls))
    dom = CellDomain(assign, n, balls, ell)
    return dom, (TruncatedKernel(spec, dom) if spec is not None else None)
