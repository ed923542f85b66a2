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
  the evaluation point.  ``verify_eigenpair`` certifies every closed form
  against the assembled generator and is the authority on all of them.

``ball_spectrum`` builds both parts once per domain (over the pure balls of
a truncated domain) for ``full_basis``, ``laplacian_block_modes`` and the
certify evolver of ``heat``; its K x K eigensolve runs on first read only.
``full_basis`` lays its columns out disc by disc
(``EigenBasis.cells_per_block`` s = p^(n - m)): disc k's s - 1 Kozyrev
columns vanish off its s cells, so each residual of theirs is the disc's
N x s column slab of the assembled generator times the disc's block,
still over all N rows, and ``heat.heat_kernel`` sums them on the diagonal
blocks.  Every function that acts on cells takes the ``CellDomain`` alone
and reads the assignment, the dendrogram and the tree measure nu from it.
Float sums run left to right, as the builtin ``sum`` does only before
Python 3.12.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
from .operators import (Bullet, GeneratorMatrix, KernelSpec, _cross_rates, _disc_rates,
                        _disc_shifts, _leaf_indices, generator)
from .padic import CellDomain, DiscAssignment, PAdicCell, TreeMeasure
from .ultraindex import DendrogramNode


@dataclass(frozen=True)
class EigenPair:
    kind: str  # 'kozyrev' | 'ultrametric' | 'block' | 'constant'
    support: str
    index: int
    lam: float
    psi: np.ndarray
    residual: float = float("nan")


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs over the cells, with their functions as the columns of one
    read-only matrix ``psi`` (stacked from the pairs when not given) and,
    when known, the generator their residuals were certified against.

    ``cells_per_block`` s is the layout of ``psi``: with K = N / s blocks
    of s consecutive cells, the first K (s - 1) columns are block-diagonal
    (block k's s - 1 columns vanish off cells k s .. (k + 1) s - 1) and the
    last K are dense.  The default s = 1 has no block part.
    """

    pairs: tuple
    cells: Sequence  # the domain's cells, read lazily
    measure: np.ndarray
    measure_kind: str
    psi: np.ndarray | None = field(default=None, repr=False, compare=False)
    generator: GeneratorMatrix | None = field(default=None, repr=False, compare=False)
    cells_per_block: int = 1

    def __post_init__(self):
        if self.psi is None:
            psi = np.column_stack([np.asarray(p.psi, dtype=complex) for p in self.pairs])
            psi.setflags(write=False)
            object.__setattr__(self, "psi", psi)
        if len(self.cells) % self.cells_per_block:
            raise ValueError(f"{len(self.cells)} cells do not split into blocks "
                             f"of {self.cells_per_block}")

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def psi_matrix(self) -> np.ndarray:
        return self.psi

    def eigenvalues(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def disc_blocks(self) -> np.ndarray:
        """The diagonal blocks of the leading block-diagonal columns, as a
        K x s x (s - 1) array (K x 1 x 0 for s = 1)."""
        return _diagonal_blocks(self.psi, self.cells_per_block)

    def gram(self) -> np.ndarray:
        psi = self.psi_matrix()
        return psi.conj().T @ (self.measure[:, None] * psi)

    def projector_sum(self) -> np.ndarray:
        psi = self.psi_matrix()
        return psi @ (psi.conj().T * self.measure[None, :])


def _diagonal_blocks(psi: np.ndarray, s: int) -> np.ndarray:
    """Block k of the leading K (s - 1) columns of an N x N ``psi``: rows
    k s .. (k + 1) s - 1 by columns k (s - 1) .. (k + 1)(s - 1) - 1."""
    K, w = len(psi) // s, s - 1
    rows = np.arange(K * s).reshape(K, s, 1)
    cols = (np.arange(K) * w)[:, None, None] + np.arange(w)
    return psi[rows, cols]


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


def ultrametric_eigenvalue(
    delta,
    nu: TreeMeasure,
    node: DendrogramNode,
    alpha: float,
) -> float:
    """Generator eigenvalue of an ultrametric wavelet (ultrametric kernel,
    tree measure): sibling exchange within the node plus the escape rate
    towards every ancestor's remainder.  Independent of the child node
    and of the character index; certified against the assembled matrix
    by ``verify_eigenpair`` in the test suite."""
    if node.is_leaf:
        raise LeafNode("ultrametric wavelets live on internal nodes")
    if delta is not None:
        diam = max(
            delta.of(u, v)
            for a, b in itertools.combinations(node.children, 2)
            for u in a.members
            for v in b.members
        )
        if not math.isclose(diam, node.radius, rel_tol=1e-12):
            raise ValueError("ultrametric matrix disagrees with the dendrogram radius")
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


def _block_pairs(spectrum: BallSpectrum) -> list[EigenPair]:
    lifted = np.repeat(spectrum.vecs, spectrum.sizes, axis=0)
    return [EigenPair("block", "discs", k, float(lam), lifted[:, k])
            for k, lam in enumerate(spectrum.evals)]


def laplacian_block_modes(spec: KernelSpec, disc: CellDomain,
                          measure: str = "haar") -> list[EigenPair]:
    """Eigenpairs of the vertex matrix k(v,w) * mass(U_w) (``ball_spectrum``),
    lifted to functions constant on each disc, normalised in the cell inner
    product.  All eigenvalues are non-positive."""
    return _block_pairs(ball_spectrum(spec, disc, measure))


_VERIFY_BLOCK = 256  # columns per matrix product in a batched check


def verify_eigenpair(A: GeneratorMatrix, psi: np.ndarray, lam):
    """Relative residual ||A psi - lam psi||_inf / max(1, |lam|): the
    universal oracle for every closed-form eigenvalue.

    ``psi`` is one vector with a scalar ``lam`` (returns a float), or an
    N x k column block with k eigenvalues (returns the k residuals).  A
    block is checked with real matrix products on the real and imaginary
    parts, ``_VERIFY_BLOCK`` columns at a time.
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
    out = np.empty(len(lam))
    for lo in range(0, len(lam), _VERIFY_BLOCK):
        cols = slice(lo, lo + _VERIFY_BLOCK)
        block, lam_b = psi[:, cols], lam[cols]
        err = np.abs(A.matrix @ block.real - block.real * lam_b)
        if np.iscomplexobj(block):
            err = np.hypot(err, A.matrix @ block.imag - block.imag * lam_b)
        out[cols] = err.max(axis=0, initial=0.0) / np.maximum(1.0, np.abs(lam_b))
    return out


def _basis_residuals(A: GeneratorMatrix, psi: np.ndarray, lam, s: int) -> np.ndarray:
    """``verify_eigenpair(A, psi, lam)`` of a basis laid out in blocks of s
    cells (``EigenBasis.cells_per_block``): the same generator and the same
    max|A psi - lam psi| / max(1, |lam|) over all N rows.  The last K
    columns go through ``verify_eigenpair``.  Block k's s - 1 columns
    vanish off its cells, so A psi is the N x s column slab of A over those
    cells times the s x (s - 1) block, in batched products over several
    blocks of at most ``_VERIFY_BLOCK`` columns in all, and lam psi is
    subtracted on the block's rows only."""
    n = A.n_cells
    K, w = n // s, s - 1
    lam = np.asarray(lam, dtype=float)
    out = np.empty(n)
    out[K * w:] = verify_eigenpair(A, psi[:, K * w:], lam[K * w:])
    blocks, lams = _diagonal_blocks(psi, s), lam[:K * w].reshape(K, w)
    slabs = A.matrix.reshape(n, K, s).transpose(1, 0, 2)  # slab k: A's columns of block k
    width = max(1, min(w, _VERIFY_BLOCK))  # columns of one block per product
    per = _VERIFY_BLOCK // width  # blocks per product
    for k0 in range(0, K, per):
        k1 = min(k0 + per, K)
        ks = np.arange(k0, k1)
        for j0 in range(0, w, width):
            x, lam_b = blocks[ks, :, j0:j0 + width], lams[ks, j0:j0 + width]
            err = 0.0  # hypot(0, r) is |r|: the real part alone, then with the imaginary part
            for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
                r = slabs[k0:k1] @ part  # (k1 - k0) x N x width
                r.reshape(k1 - k0, K, s, -1)[ks - k0, ks] -= part * lam_b[:, None, :]
                err = np.hypot(err, r)
            out[:K * w].reshape(K, w)[ks, j0:j0 + width] = (
                err.max(axis=1, initial=0.0) / np.maximum(1.0, np.abs(lam_b)))
    return out


# --- full bases ----------------------------------------------------------------------


def full_basis(spec: KernelSpec, disc: CellDomain, measure: str = "haar") -> EigenBasis:
    """Complete orthonormal eigenbasis of the level-n space.

    Haar measure: Kozyrev wavelets over every ball inside every disc plus
    the disc-constant block modes.  Tree measure with the ultrametric
    kernel: the constant, the ultrametric wavelets, and the Kozyrev
    wavelets (renormalised); other kernels replace the wavelet block by
    the measure-weighted block modes.  The functions are written once
    into the columns of one matrix, disc by disc: with s = p^(n - m) cells
    per disc, disc k's s - 1 Kozyrev columns vanish off its cells, and the
    last K columns (block modes, or the constant and the ultrametric
    wavelets) are dense (``EigenBasis.cells_per_block`` = s).  Every residual is taken against
    the assembled generator, which the basis keeps, over all N rows, the
    Kozyrev columns block by block (``_basis_residuals``).
    """
    gen = generator(spec, disc, measure)
    assign = disc.assignment
    p, m, n = assign.p, assign.m, disc.level
    n_cells = len(disc)
    psi = np.zeros((n_cells, n_cells), dtype=complex)
    meta: list[tuple] = []  # (kind, support, index, lam) per column

    def add(kind, support, index, lam, vec):
        if len(meta) < n_cells:
            psi[:, len(meta)] = vec
        meta.append((kind, support, index, lam))

    spectrum = ball_spectrum(spec, disc, measure)
    for k, label in enumerate(assign.labels):  # pure ball k is this disc
        prefix = "".join(map(str, assign.discs[label].digits))
        suffixes = [""]  # the digits below the disc of its level-d balls, in digit order
        for d in range(m, n):
            values = np.array([_wavelet_values(p, d, j) for j in range(1, p)])
            if measure == "nu":
                values = values / math.sqrt(spectrum.scale[k])
            balls, size, col = len(suffixes), p ** (n - d), len(meta)
            cells = psi[spectrum.starts[k]:, col:][:balls * size, :balls * (p - 1)]
            r = np.arange(balls)  # ball r, digit a, index j: row a * size / p, column j - 1
            cells.reshape(balls, p, size // p, balls, p - 1)[r, :, :, r] = values.T[:, None, :]
            lam = float(spectrum.kozyrev[k, d - m])
            meta += [("kozyrev", f"{label}:{prefix + s or '()'}", j, lam)
                     for s in suffixes for j in range(1, p)]
            suffixes = [s + str(a) for s in suffixes for a in range(p)]

    if measure == "nu" and spec.bullet is Bullet.ULTRAMETRIC:
        add("constant", "domain", 0, 0.0, 1.0)
        for node in assign.dendrogram.internal_nodes():
            gamma = ultrametric_eigenvalue(None, assign.nu, node, spec.alpha)
            support = ",".join(sorted(map(str, assign.dendrogram.order[node.start:node.stop])))
            for k in range(1, len(node.children)):
                add("ultrametric", support, k, gamma, ultrametric_wavelet(disc, node, k))
    else:
        for pair in _block_pairs(spectrum):
            add(pair.kind, pair.support, pair.index, pair.lam, pair.psi)

    if len(meta) != n_cells:
        raise IncompleteBasis(f"{len(meta)} basis functions for {n_cells} cells")
    s = p ** (n - m)
    residuals = _basis_residuals(gen, psi, [lam for *_, lam in meta], s)
    psi.setflags(write=False)
    pairs = tuple(
        EigenPair(kind, support, index, lam, psi[:, k], float(residuals[k]))
        for k, (kind, support, index, lam) in enumerate(meta)
    )
    return EigenBasis(pairs, disc.cells, gen.measure, measure, psi, gen, s)
