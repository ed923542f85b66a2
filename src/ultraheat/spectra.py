"""Wavelet eigenbases and closed-form spectra of the jump generators.

Two wavelet families diagonalise the operators together with functions
constant on the vertex discs:

* Kozyrev wavelets: supported in a ball B of radius p^-d inside a vertex
  disc of radius p^-m, constant times exp(2 pi i j a / p) on the child
  cell with branch digit a.  They are eigenfunctions for every kernel
  choice and both measures; the eigenvalue splits into a local part
  (shell integral over the disc plus the in-ball jump term) and the
  total rate towards the other discs:

      local(p, alpha, d, m) = -(1 - 1/p) * sum_{k=m}^{d-1} p^{k(alpha-1)}
                              - p^{d(alpha-1)}

  Haar measure:  lambda = local - sum_w k(v,w) p^-m
  tree measure:  lambda = s_v * local - sum_w k(v,w) nu(U_w)
  with s_v the density of the tree measure on the disc relative to Haar.
  The local part is independent of the character index j and strictly
  decreases in d.

* Ultrametric wavelets: on an internal dendrogram node, constant
  nu(node)^(-1/2) * exp(2 pi i k idx / c) on each of the c children
  (children enumerated by smallest member label).  For the ultrametric
  kernel under the tree measure they are eigenfunctions with

      gamma = -radius^(-alpha) * c * nu(child)
              - sum over ancestors a of radius(a)^(-alpha) * (nu(a) - nu(step below a))

  i.e. the sibling exchange term plus the total escape rate towards the
  rest of the tree; both pieces are independent of which child carries
  the evaluation point.  ``verify_eigenpair`` checks a closed form against
  an assembled generator, the dense oracle of the tests.

``ball_spectrum`` builds both parts once per domain (over the pure balls of
a truncated domain) for ``full_basis`` and the one evolver of ``heat``;
its K x K eigensolve runs on first read only.
``full_basis`` (for ``spectrum`` and the tests) stores Psi as its factors:
the s x (s - 1) Kozyrev table that every disc of s = p^(n - m) cells shares
(``EigenBasis.kozyrev``), each disc's root density sqrt(s_v) (``root``, 1
under Haar), and the K x K values of the disc-constant columns on the
discs (``coarse``).  It certifies them over all N rows through the K x K
generator of ``ball_spectrum`` and one s x s Vladimirov table that every
disc shares, with no N x N array; Psi is assembled only when read.
Every function that acts on cells takes the ``CellDomain`` alone and reads
the assignment, the dendrogram and the tree measure nu from it.  Float sums
run left to right, as the builtin ``sum`` does only before Python 3.12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadJ,
    BallOutsideZ,
    DimensionMismatch,
    IncompleteBasis,
    LeafNode,
    TrivialCharacter,
)
from .linalg import weighted_symmetric_eig
from .operators import (BLOCK_ENTRIES, Bullet, KernelSpec, _check_dense, _cross_rates,
                        _disc_rates, _disc_shifts, _leaf_indices, _measure_vector,
                        _prefix_table)
from .padic import CellDomain, DiscAssignment, PAdicCell, TreeMeasure
from .ultraindex import DendrogramNode


class EigenRecord(NamedTuple):
    kind: str  # 'kozyrev' | 'ultrametric' | 'block' | 'constant'
    support: str
    index: int
    lam: float
    residual: float


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs over the N = K s cells of K discs of s cells each, stored
    as the factors of the basis matrix Psi: disc k's Kozyrev functions are
    ``kozyrev / root[k]`` on its own cells (Psi's columns k (s - 1) ..
    (k + 1)(s - 1) - 1, zero off cells k s .. (k + 1) s - 1), with
    ``kozyrev`` the s x (s - 1) table every disc shares and ``root`` the
    square roots of the disc densities; Psi's last K columns are constant
    on each disc, with disc k's values in row k of the K x K ``coarse``.
    ``records`` holds (kind, support, index, lam, residual) per column and
    ``measure`` the cell masses: column k of ``psi`` is the eigenfunction of
    ``records[k]``.  Psi itself is assembled on first read of ``psi``."""

    kozyrev: np.ndarray = field(repr=False)
    root: np.ndarray = field(repr=False)
    coarse: np.ndarray = field(repr=False)
    records: tuple
    measure: np.ndarray

    def __len__(self):
        return len(self.records)

    @functools.cached_property
    def psi(self) -> np.ndarray:
        """The N x N read-only basis matrix, block-diagonal but for its last
        K columns."""
        (s, w), K = self.kozyrev.shape, len(self.root)
        psi = np.zeros((K * s, K * w + K), dtype=complex)
        for k, root in enumerate(self.root):
            psi[k * s:(k + 1) * s, k * w:(k + 1) * w] = self.kozyrev / root
        psi[:, K * w:] = np.repeat(self.coarse, s, axis=0)
        psi.setflags(write=False)
        return psi

    def eigenvalues(self) -> np.ndarray:
        return np.array([r.lam for r in self.records])

    def gram(self) -> np.ndarray:
        return self.psi.conj().T @ (self.measure[:, None] * self.psi)

    def projector_sum(self) -> np.ndarray:
        return self.psi @ (self.psi.conj().T * self.measure[None, :])


# --- Kozyrev wavelets ------------------------------------------------------------


def _wavelet_values(p: int, d: int, j: int) -> np.ndarray:
    """|B|^(-1/2) exp(2 pi i j a / p) for the branch digits a of a level-d ball."""
    amp = float(p) ** (d / 2.0)
    return np.array([amp * np.exp(2j * math.pi * j * a / p) for a in range(p)])


def kozyrev_wavelet(disc: CellDomain, B: PAdicCell, j: int) -> np.ndarray:
    """Unit-Haar-norm Kozyrev wavelet supported in ball B, as a cell vector.

    On the child cell of B with branch digit a the value is
    |B|^(-1/2) exp(2 pi i j a / p); locally constant at level d+1.  B's
    cells are one range of the domain, so this writes one slice.
    """
    assign = disc.assignment
    p = assign.p
    if not 1 <= j <= p - 1:
        raise BadJ(f"j must lie in 1..{p - 1}, got {j}")
    if B.p != p:
        raise BallOutsideZ(f"ball over p={B.p}, domain over p={p}")
    d = B.level
    if d < assign.m or assign.vertex_of(B) is None:
        raise BallOutsideZ("ball is not contained in a vertex disc")
    if disc.level < d + 1:
        raise ValueError("discretisation too coarse to resolve the wavelet")
    cells = disc.ball_range(B)
    out = np.zeros(len(disc), dtype=complex)
    out[cells.start:cells.stop] = np.repeat(_wavelet_values(p, d, j), len(cells) // p)
    return out


def kozyrev_local_eigenvalue(p: int, alpha: float, d: int, m: int) -> float:
    """Eigenvalue of the single-disc Vladimirov dynamics on a scale-d wavelet.

    Shell-by-shell integral over the disc outside the ball plus the
    in-ball exchange term; strictly decreasing in d, independent of the
    character index.  The shells are summed left to right.
    """
    if d < m:
        raise ValueError(f"ball level d={d} must be at least the disc level m={m}")
    shells = 0.0
    for k in range(m, d):
        shells += float(p) ** (k * (alpha - 1.0))
    return -(1.0 - 1.0 / p) * shells - float(p) ** (d * (alpha - 1.0))


def kozyrev_eigenvalue(
    spec: KernelSpec,
    assign: DiscAssignment,
    B: PAdicCell,
    v,
    measure: str = "haar",
) -> float:
    """Closed-form generator eigenvalue of the Kozyrev wavelet in B inside disc v."""
    local = kozyrev_local_eigenvalue(assign.p, spec.alpha, B.level, assign.m)
    _, scale, escape = _disc_shifts(spec, assign, measure)
    iv = spec.labels.index(v)
    return float(scale[iv] * local - escape[iv])


# --- ultrametric wavelets -----------------------------------------------------------


def ultrametric_wavelet(disc: CellDomain, node: DendrogramNode, k: int) -> np.ndarray:
    """Haar-like wavelet of a non-leaf node of the domain's dendrogram:
    nu(node)^(-1/2) times the k-th character of the cyclic group on its
    children, constant per child: one value per vertex disc, gathered onto
    the cells."""
    if node.is_leaf:
        raise LeafNode("ultrametric wavelets live on internal nodes")
    c = len(node.children)
    if k == 0:
        raise TrivialCharacter("k=0 is the constant on the node, not a wavelet")
    if not 1 <= k <= c - 1:
        raise ValueError(f"character index k must lie in 1..{c - 1}, got {k}")
    amp = float(disc.assignment.nu.of(node)) ** -0.5
    pos = {label: i for i, label in enumerate(disc.assignment.labels)}
    rows = [pos[label] for label in disc.assignment.dendrogram.order]  # per leaf-order slot
    per_leaf = np.zeros(len(pos) + 1, dtype=complex)  # filler last
    for ic, child in enumerate(node.children):
        per_leaf[rows[child.start:child.stop]] = amp * np.exp(2j * math.pi * k * ic / c)
    return per_leaf[disc.leaf_index]


def ultrametric_eigenvalue(nu: TreeMeasure, node: DendrogramNode, alpha: float) -> float:
    """Generator eigenvalue of an ultrametric wavelet (ultrametric kernel,
    tree measure): sibling exchange within the node plus the escape rate
    towards every ancestor's remainder.  Independent of the child node
    and of the character index; certified against the assembled matrix
    by ``verify_eigenpair`` in the test suite."""
    if node.is_leaf:
        raise LeafNode("ultrametric wavelets live on internal nodes")
    c = len(node.children)
    child_mass = float(nu.of(node)) / c
    gamma = -(node.radius**-alpha) * c * child_mass
    walk = node
    anc = node.parent
    while anc is not None:
        gamma -= anc.radius**-alpha * float(nu.of(anc) - nu.of(walk))
        walk, anc = anc, anc.parent
    return gamma


# --- the closed-form spectrum of a cell domain ---------------------------------------


@dataclass(frozen=True)
class BallSpectrum:
    """Pure ball a starts at cell ``starts[a]``, spans ``sizes[a]`` cells, has
    level ``levels[a]``, measure ``mass[a]`` and density ``scale[a]``, and
    level-d wavelet eigenvalue ``kozyrev[a, d - levels[a]]`` (NaN from level
    n on); the eigenpairs of the K x K matrix ``coarse`` on functions
    constant on the pure balls, ``evals`` and ``vecs`` (orthonormal under
    ``mass``), do the rest.  They are solved for on first read, once."""

    starts: np.ndarray
    sizes: np.ndarray
    levels: np.ndarray
    mass: np.ndarray
    scale: np.ndarray
    kozyrev: np.ndarray
    coarse: np.ndarray

    @functools.cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        return weighted_symmetric_eig(self.coarse, self.mass)

    @property
    def evals(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def vecs(self) -> np.ndarray:
        return self._eigenpairs[1]


def ball_spectrum(spec: KernelSpec, dom: CellDomain, measure: str = "haar") -> BallSpectrum:
    """The closed-form spectrum on a discretisation (Haar or tree measure) or
    a truncated domain (Haar), with no N x N array.  A disc's pure ball is
    the whole disc; filler has the Haar measure and no escape."""
    if dom.cut_level is not None and measure != "haar":
        raise ValueError("truncated domains are discretised with the Haar measure")
    mass, scale, escape, _ = _disc_rates(spec, dom, measure)
    p, n = dom.p, dom.level
    starts, levels = dom.pure_balls()
    leaf = _leaf_indices(spec, dom)[starts]
    block = dom.block_index[starts]
    mass = np.where(leaf >= 0, np.append(mass, 0.0)[leaf], float(p) ** -levels)
    scale, escape = np.append(scale, 1.0)[leaf], np.append(escape, 0.0)[leaf]

    rates = _cross_rates(spec)[np.ix_(leaf, leaf)]
    same = block[:, None] == block[None, :]
    # common prefix of two balls of one block: n minus the number of
    # base-p truncations under which their first cells' offsets differ
    q = starts - np.searchsorted(dom.block_index, block)
    j = np.full(rates.shape, n)
    while q.any():
        j -= q[:, None] != q[None, :]
        q = q // p
    j = np.minimum(j, n - 1)  # a ball with itself has no rate to raise (zeroed below)
    rates[same] = ((float(p) ** -j) ** -spec.alpha)[same]
    L = rates * mass[None, :]
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))

    block_level = np.array([ball.level for ball in dom.balls])[block]
    local = np.full((len(starts), n - int(levels.min())), np.nan)
    for b, d0 in sorted(set(zip(block_level.tolist(), levels.tolist()))):
        rows = (block_level == b) & (levels == d0)
        local[rows, :n - d0] = [kozyrev_local_eigenvalue(p, spec.alpha, d, b)
                                for d in range(d0, n)]
    kozyrev = scale[:, None] * local - escape[:, None]
    return BallSpectrum(starts, p ** (n - levels), levels, mass, scale, kozyrev, L)


def verify_eigenpair(A, psi: np.ndarray, lam):
    """Relative residual ||A psi - lam psi||_inf / max(1, |lam|) against an
    assembled ``GeneratorMatrix``: the dense oracle of the closed forms in
    the tests.

    ``psi`` is one vector with a scalar ``lam`` (returns a float), or an
    N x k column block with k eigenvalues (returns the k residuals), checked
    with one real matrix product on each of its real and imaginary parts.
    """
    psi = np.asarray(psi)
    if psi.ndim == 1:
        if psi.shape != (A.n_cells,):
            raise DimensionMismatch(f"vector of length {psi.shape} against {A.n_cells} cells")
        r = A.matrix @ psi - lam * psi
        return float(np.max(np.abs(r)) / max(1.0, abs(lam)))
    lam = np.asarray(lam, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != A.n_cells or lam.shape != (psi.shape[1],):
        raise DimensionMismatch(
            f"block of shape {psi.shape} with {lam.shape} eigenvalues against {A.n_cells} cells"
        )
    err = np.abs(A.matrix @ psi.real - psi.real * lam)
    if np.iscomplexobj(psi):
        err = np.hypot(err, A.matrix @ psi.imag - psi.imag * lam)
    return err.max(axis=0, initial=0.0) / np.maximum(1.0, np.abs(lam))


def _basis_residuals(spec: KernelSpec, disc: CellDomain, rates: np.ndarray,
                     kozyrev: np.ndarray, root: np.ndarray, coarse: np.ndarray,
                     lam) -> np.ndarray:
    """max|A psi - lam psi| / max(1, |lam|) over all N rows per column of the
    basis of ``kozyrev``, ``root`` and ``coarse`` (``EigenBasis``), with A psi
    from the factors and ``rates``, the K x K generator on the disc-constant
    functions (``BallSpectrum.coarse``): A psi is ``rates @ coarse`` on the
    last K columns.  On disc k's cells its Kozyrev block ``kozyrev / root[k]``
    meets one s x s Vladimirov table (prefix rates times p^-n, zero row sums)
    scaled by the density root[k]^2, less the escape rate -rates[k, k]; on
    disc w's cells, rates[w, k] times the column's mean, 0 up to rounding.
    The discs go through one (discs, s, w) broadcast per chunk of whole
    discs, of at most BLOCK_ENTRIES entries (one disc where s w is larger):
    each entry meets the operations of a disc-by-disc loop in its order,
    so the residuals keep its bits, and a large-s basis its memory."""
    p, n, (s, w), K = disc.p, disc.level, kozyrev.shape, len(root)
    lam = np.asarray(lam, dtype=float)
    err = np.empty(len(lam))
    err[K * w:] = np.abs(rates @ coarse - coarse * lam[K * w:]).max(axis=0, initial=0.0)
    j = np.minimum(_prefix_table(p, disc.assignment.m, n), n - 1)  # a cell with itself: zeroed
    table = (float(p) ** -j) ** -spec.alpha * float(p) ** -n
    np.fill_diagonal(table, 0.0)
    np.fill_diagonal(table, -table.sum(axis=1))
    local, mean = table @ kozyrev, np.abs(kozyrev.mean(axis=0))  # shared by every disc
    cross = rates.max(axis=0, initial=0.0)  # the largest off the diagonal: rates[k, k] <= 0
    per = max(1, BLOCK_ENTRIES // (s * w))  # whole discs per chunk
    for lo in range(0, K, per):
        hi = min(lo + per, K)
        root_k, own = root[lo:hi, None, None], np.diagonal(rates)[lo:hi, None, None]
        block = kozyrev / root_k  # (discs, s, w)
        lam_k = lam[lo * w:hi * w].reshape(hi - lo, 1, w)
        on_disc = np.abs(local * root_k + block * own - block * lam_k).max(axis=1)
        off_disc = cross[lo:hi, None] * (mean / root_k[:, 0])
        err[lo * w:hi * w] = np.maximum(on_disc, off_disc).ravel()
    return err / np.maximum(1.0, np.abs(lam))


# --- full bases ----------------------------------------------------------------------


def full_basis(spec: KernelSpec, disc: CellDomain, measure: str = "haar") -> EigenBasis:
    """Complete orthonormal eigenbasis of the level-n space.

    Haar measure: Kozyrev wavelets over every ball inside every disc plus
    the disc-constant block modes.  Tree measure with the ultrametric
    kernel: the constant, the ultrametric wavelets, and the Kozyrev
    wavelets (renormalised); other kernels replace the wavelet block by
    the measure-weighted block modes.  With s = p^(n - m) cells per disc,
    the s - 1 Kozyrev functions of a disc are written once, into the
    s x (s - 1) table every disc shares, and the K block modes, or the
    constant and the ultrametric wavelets, into the K x K ``coarse`` table
    of their values on the discs (``EigenBasis``).  A domain of other than
    K s cells (a truncated domain with filler) raises IncompleteBasis, one
    of over MAX_DENSE_CELLS TooManyCells.  Every residual is taken over all
    N rows from the factors, with no N x N array (``_basis_residuals``).
    """
    assign = disc.assignment
    p, m, n = assign.p, assign.m, disc.level
    K, s, n_cells = len(assign.labels), p ** (n - m), len(disc)
    if n_cells != K * s:
        raise IncompleteBasis(f"{K * s} basis functions for {n_cells} cells")
    _check_dense(n_cells)
    spectrum = ball_spectrum(spec, disc, measure)
    kozyrev = np.zeros((s, s - 1), dtype=complex)
    coarse = np.zeros((K, K), dtype=complex)
    columns: list[tuple] = []  # (d, digits below the disc, j) per Kozyrev column of a disc

    suffixes = [""]  # the digits below the disc of its level-d balls, in digit order
    for d in range(m, n):
        values = np.array([_wavelet_values(p, d, j) for j in range(1, p)])
        balls, size = len(suffixes), p ** (n - d)
        cells = kozyrev[:, len(columns):len(columns) + balls * (p - 1)]
        r = np.arange(balls)  # ball r, digit a, index j: row a * size / p, column j - 1
        cells.reshape(balls, p, size // p, balls, p - 1)[r, :, :, r] = values.T[:, None, :]
        columns += [(d, tail, j) for tail in suffixes for j in range(1, p)]
        suffixes = [tail + str(a) for tail in suffixes for a in range(p)]

    meta: list[tuple] = []  # (kind, support, index, lam) per column
    for k, label in enumerate(assign.labels):  # pure ball k is this disc
        prefix = "".join(map(str, assign.discs[label].digits))
        meta += [("kozyrev", f"{label}:{prefix + tail or '()'}", j,
                  float(spectrum.kozyrev[k, d - m])) for d, tail, j in columns]

    if measure == "nu" and spec.bullet is Bullet.ULTRAMETRIC:
        # ultrametric_wavelet(disc, node, k) on the discs, one child's leaf range at a time
        pos = {label: i for i, label in enumerate(assign.labels)}
        rows = np.array([pos[label] for label in assign.dendrogram.order])  # per leaf-order slot
        coarse[:, 0] = 1.0
        meta.append(("constant", "domain", 0, 0.0))
        for node in assign.dendrogram.internal_nodes():
            gamma = ultrametric_eigenvalue(assign.nu, node, spec.alpha)
            support = ",".join(sorted(map(str, assign.dendrogram.order[node.start:node.stop])))
            amp, c = float(assign.nu.of(node)) ** -0.5, len(node.children)
            for k in range(1, c):
                column = coarse[:, len(meta) - K * (s - 1)]
                for ic, child in enumerate(node.children):
                    column[rows[child.start:child.stop]] = amp * np.exp(2j * math.pi * k * ic / c)
                meta.append(("ultrametric", support, k, gamma))
    else:
        coarse[:] = spectrum.vecs
        meta += [("block", "discs", k, float(lam)) for k, lam in enumerate(spectrum.evals)]

    root = np.sqrt(spectrum.scale)
    residuals = _basis_residuals(spec, disc, spectrum.coarse, kozyrev, root, coarse,
                                 [lam for *_, lam in meta])
    for arr in (kozyrev, root, coarse):
        arr.setflags(write=False)
    records = tuple(EigenRecord(*row, float(res)) for row, res in zip(meta, residuals))
    return EigenBasis(kozyrev, root, coarse, records, _measure_vector(disc, measure))
