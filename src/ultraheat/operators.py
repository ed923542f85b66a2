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
or per cut node.  A malformed kernel base, labels that differ from the
assignment, or an unknown measure raise ``BadKernel`` (exit 25).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
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


def _prefix_length_matrix(digits: np.ndarray) -> np.ndarray:
    """Common leading-digit count of every pair of digit rows.

    One running N x N mask of "equal so far" is narrowed level by level,
    so the temporaries stay O(N^2) booleans instead of O(N^2 L) integers.
    """
    n, levels = digits.shape
    out = np.zeros((n, n), dtype=np.int64)
    same = np.ones((n, n), dtype=bool)
    for k in range(levels):
        col = digits[:, k]
        same &= col[:, None] == col[None, :]
        out += same
    return out


def cell_distance_matrix(disc) -> np.ndarray:
    """Pairwise p-adic distances between the discretisation cells."""
    digits = disc.digit_matrix()
    j = _prefix_length_matrix(digits)
    dist = float(disc.p) ** (-j.astype(float))
    np.fill_diagonal(dist, 0.0)
    return dist


def _leaf_indices(spec: KernelSpec, assign: DiscAssignment, disc: CellDomain) -> np.ndarray:
    """Position in ``spec.labels`` of the vertex disc of every cell, -1 for
    filler."""
    if set(spec.labels) != set(assign.labels):
        raise BadKernel("kernel labels do not match the disc assignment")
    idx = spec.label_index()
    per_leaf = [idx[label] for label in disc.assignment.labels]
    return np.array(per_leaf + [-1])[disc.leaf_index]


def kernel_matrix(spec: KernelSpec, assign: DiscAssignment, disc: CellDomain) -> np.ndarray:
    """k_p over all cell pairs: Vladimirov inside a block (a vertex disc, or
    a cut ball of a truncated domain), the cross rate between the discs of
    cells in different blocks (none from filler), zero on the diagonal."""
    leaf_idx = _leaf_indices(spec, assign, disc)
    dist = cell_distance_matrix(disc)
    with np.errstate(divide="ignore"):
        intra = np.where(dist > 0, dist, 1.0) ** -spec.alpha
    same = disc.block_index[:, None] == disc.block_index[None, :]
    cross = np.zeros((len(spec.labels) + 1,) * 2)  # filler (-1) takes the zero last row
    cross[:-1, :-1] = spec.cross_rates()
    K = np.where(same, intra, cross[np.ix_(leaf_idx, leaf_idx)])
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
    disc,
    measure: str = "haar",
    tree_measure: TreeMeasure | None = None,
) -> GeneratorMatrix:
    """Exact matrix of the jump operator on level-n locally constant functions.

    ``disc`` is a cell domain (a discretisation or a truncated domain), or
    the cut kernel of a truncated domain (whose matrix is then built once
    and shared with its other uses).  The cell count is checked against
    the dense limit before any N x N array is allocated.
    """
    if isinstance(disc, CellDomain) and disc.cut_level is not None:
        disc = TruncatedKernel(spec, disc)
    cut = disc if isinstance(disc, TruncatedKernel) else None
    if cut is not None:
        if cut.spec is not spec:
            raise ValueError("the cut kernel was built for another kernel spec")
        if measure != "haar":
            raise ValueError("truncated domains are discretised with the Haar measure")
        disc = cut.domain
    _check_dense(len(disc))
    mvec = _measure_vector(disc, measure, tree_measure)
    K = kernel_matrix(spec, assign, disc) if cut is None else cut.matrix()
    return _assemble(
        K, mvec, disc.cells, disc.leaf_labels, disc.level, measure, spec.bullet, spec.alpha
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
    """Total jump rate out of cell x (off-diagonal row sum of the generator),
    computed from x's row alone in O(N)."""
    i = disc.index_of(x)
    mvec = _measure_vector(disc, measure, tree_measure)
    leaf_idx = _leaf_indices(spec, assign, disc)
    digits = disc.digit_matrix()
    j = np.logical_and.accumulate(digits == digits[i], axis=1).sum(axis=1)
    intra = (float(disc.p) ** -j.astype(float)) ** -spec.alpha
    rates = np.where(leaf_idx == leaf_idx[i], intra, spec.cross_rates()[leaf_idx[i], leaf_idx])
    rates[i] = 0.0
    return float(rates @ mvec)


# --- tree truncation ------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedKernel:
    """The cut kernel: Vladimirov inside every cut ball, untouched across.
    Its matrix is built on first use and kept read-only."""

    spec: KernelSpec
    domain: CellDomain

    _matrix: np.ndarray = field(default=None, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            K = truncated_kernel_matrix(self.spec, self.domain)
            K.setflags(write=False)
            object.__setattr__(self, "_matrix", K)
        return self._matrix

    def max_rate_z_to_filler(self) -> float:
        K = self.matrix()
        z = self.domain.leaf_index >= 0
        if z.all():
            return 0.0
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


def truncated_kernel_matrix(spec: KernelSpec, dom: CellDomain) -> np.ndarray:
    """The cut kernel's matrix: ``kernel_matrix`` over the cut-node blocks."""
    return kernel_matrix(spec, dom.assignment, dom)
