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
or per cut node.  A block's cells are numbered in digit order, so two of
them share the block ball's level plus the common prefix of their offsets
in the block: one Vladimirov table per ball level serves every block of
that level.  A malformed kernel base, labels that differ from the
assignment, or an unknown measure raise ``BadKernel`` (exit 25).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import BadAlpha, BadKernel, CellOutsideZ, InvalidLevel, TooManyCells
from .padic import CellDomain, DiscAssignment, PAdicCell, TreeMeasure, padic_distance


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
        if not self.alpha >= 1:
            raise BadAlpha(f"alpha must be >= 1, got {self.alpha}")
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


def _leaf_indices(spec: KernelSpec, assign: DiscAssignment, disc: CellDomain) -> np.ndarray:
    """Position in ``spec.labels`` of the vertex disc of every cell, -1 for
    filler."""
    if set(spec.labels) != set(assign.labels):
        raise BadKernel("kernel labels do not match the disc assignment")
    idx = spec.label_index()
    per_leaf = [idx[label] for label in disc.assignment.labels]
    return np.array(per_leaf + [-1])[disc.leaf_index]


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


def kernel_matrix(spec: KernelSpec, assign: DiscAssignment, disc: CellDomain) -> np.ndarray:
    """k_p over all cell pairs: the cross rate between the discs of cells in
    different blocks (none from filler), overwritten inside every block (a
    vertex disc, or a cut ball of a truncated domain) by the Vladimirov
    rates of one prefix table per ball level; zero on the diagonal."""
    leaf_idx = _leaf_indices(spec, assign, disc)
    K = _cross_rates(spec)[np.ix_(leaf_idx, leaf_idx)]
    tables: dict = {}
    for ball in disc.balls:
        if ball.level not in tables:
            j = _prefix_table(disc.p, ball.level, disc.level)
            tables[ball.level] = (float(disc.p) ** -j) ** -spec.alpha
        cells = disc.ball_range(ball)
        K[cells.start:cells.stop, cells.start:cells.stop] = tables[ball.level]
    np.fill_diagonal(K, 0.0)
    return K


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

    level: int
    cells: Sequence  # the domain's cells, read lazily
    leaf_labels: tuple
    matrix: np.ndarray
    measure: np.ndarray  # per-cell masses
    measure_kind: str  # 'haar' | 'nu'
    bullet: Bullet
    alpha: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        mu = np.asarray(self.measure, dtype=float)
        mu.setflags(write=False)
        object.__setattr__(self, "measure", mu)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1))))


MAX_DENSE_CELLS = 10_000


def _check_dense(n_cells: int) -> None:
    if n_cells > MAX_DENSE_CELLS:
        raise TooManyCells(
            f"{n_cells} cells exceed the dense-matrix limit of {MAX_DENSE_CELLS}; "
            "choose a coarser level"
        )


def _assemble(K, measure_vec, cells, leaf_labels, level, measure_kind, bullet, alpha):
    _check_dense(len(cells))
    A = K * measure_vec[None, :]
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return GeneratorMatrix(
        level=level,
        cells=cells,
        leaf_labels=tuple(leaf_labels),
        matrix=A,
        measure=measure_vec,
        measure_kind=measure_kind,
        bullet=bullet,
        alpha=alpha,
    )


def generator(
    spec: KernelSpec,
    assign: DiscAssignment,
    disc: CellDomain,
    measure: str = "haar",
    tree_measure: TreeMeasure | None = None,
) -> GeneratorMatrix:
    """Exact matrix of the jump operator on level-n locally constant functions.

    ``disc`` is a discretisation or a truncated domain; the latter takes
    the Haar measure only.  The cell count is checked against the dense
    limit before any N x N array is allocated.
    """
    if disc.cut_level is not None and measure != "haar":
        raise ValueError("truncated domains are discretised with the Haar measure")
    _check_dense(len(disc))
    mvec = _measure_vector(disc, measure, tree_measure)
    return _assemble(
        kernel_matrix(spec, assign, disc), mvec, disc.cells, disc.leaf_labels, disc.level,
        measure, spec.bullet, spec.alpha,
    )


def _measure_vector(disc: CellDomain, measure: str, tree_measure: TreeMeasure | None):
    if measure == "haar":
        return disc.haar_volumes()
    if measure == "nu":
        if tree_measure is None:
            raise BadKernel("nu measure requires a TreeMeasure")
        return disc.nu_volumes(tree_measure)
    raise BadKernel(f"unknown measure {measure!r}")


def degree(
    spec: KernelSpec,
    assign: DiscAssignment,
    disc: CellDomain,
    x: PAdicCell,
    measure: str = "haar",
    tree_measure: TreeMeasure | None = None,
) -> float:
    """Total jump rate out of cell x (off-diagonal row sum of the generator):
    x's row of the cross rates, overwritten on x's block by its row of the
    block's prefix table."""
    i = disc.index_of(x)
    mvec = _measure_vector(disc, measure, tree_measure)
    leaf_idx = _leaf_indices(spec, assign, disc)
    rates = _cross_rates(spec)[leaf_idx[i], leaf_idx]
    ball = disc.balls[disc.block_index[i]]
    cells = disc.ball_range(ball)
    j = _prefix_table(disc.p, ball.level, disc.level)[i - cells.start]
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
        z = self.domain.leaf_index >= 0
        if z.all():
            return 0.0
        K = kernel_matrix(self.spec, self.domain.assignment, self.domain)
        return float(K[np.ix_(z, ~z)].max())


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
    chosen.sort(key=lambda n: min(map(str, n.members)))
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
