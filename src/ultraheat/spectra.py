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

Functions constant on the discs are handled by the dense eigensolve of
the measure-weighted vertex matrix (``laplacian_block_modes``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadJ,
    BadKernel,
    BallOutsideZ,
    DimensionMismatch,
    IncompleteBasis,
    LeafNode,
    TrivialCharacter,
)
from .linalg import weighted_symmetric_eig
from .operators import Bullet, GeneratorMatrix, KernelSpec, _leaf_indices, generator
from .padic import CellDomain, DiscAssignment, PAdicCell, TreeMeasure
from .ultraindex import Dendrogram, DendrogramNode


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
    when known, the generator their residuals were certified against."""

    pairs: tuple
    cells: Sequence  # the domain's cells, read lazily
    measure: np.ndarray
    measure_kind: str
    psi: np.ndarray | None = field(default=None, repr=False, compare=False)
    generator: GeneratorMatrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.psi is None:
            psi = np.column_stack([np.asarray(p.psi, dtype=complex) for p in self.pairs])
            psi.setflags(write=False)
            object.__setattr__(self, "psi", psi)

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

    def gram(self) -> np.ndarray:
        psi = self.psi_matrix()
        return psi.conj().T @ (self.measure[:, None] * psi)

    def projector_sum(self) -> np.ndarray:
        psi = self.psi_matrix()
        return psi @ (psi.conj().T * self.measure[None, :])


# --- Kozyrev wavelets ------------------------------------------------------------


def kozyrev_wavelet(
    assign: DiscAssignment, disc: CellDomain, B: PAdicCell, j: int
) -> np.ndarray:
    """Unit-Haar-norm Kozyrev wavelet supported in ball B, as a cell vector.

    On the child cell of B with branch digit a the value is
    |B|^(-1/2) exp(2 pi i j a / p); locally constant at level d+1.  B's
    cells are one range of the domain, so this writes one slice.
    """
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
    amp = float(p) ** (d / 2.0)
    values = np.array([amp * np.exp(2j * math.pi * j * a / p) for a in range(p)])
    out = np.zeros(len(disc), dtype=complex)
    out[cells.start:cells.stop] = np.repeat(values, len(cells) // p)
    return out


def kozyrev_local_eigenvalue(p: int, alpha: float, d: int, m: int) -> float:
    """Eigenvalue of the single-disc Vladimirov dynamics on a scale-d wavelet.

    Shell-by-shell integral over the disc outside the ball plus the
    in-ball exchange term; strictly decreasing in d, independent of the
    character index.
    """
    if d < m:
        raise ValueError(f"ball level d={d} must be at least the disc level m={m}")
    shells = sum(float(p) ** (k * (alpha - 1.0)) for k in range(m, d))
    return -(1.0 - 1.0 / p) * shells - float(p) ** (d * (alpha - 1.0))


def _disc_masses(spec: KernelSpec, assign: DiscAssignment, measure: str,
                 tree_measure: TreeMeasure | None) -> dict:
    """Mass of every vertex disc under the Haar or the tree measure."""
    if measure == "haar":
        return dict.fromkeys(spec.labels, float(assign.p) ** -assign.m)
    if measure == "nu":
        if tree_measure is None:
            raise BadKernel("nu measure requires a TreeMeasure")
        return {w: float(tree_measure.leaf_mass(w)) for w in spec.labels}
    raise BadKernel(f"unknown measure {measure!r}")


def _kozyrev_shift(spec: KernelSpec, assign: DiscAssignment, v, measure: str,
                   masses: dict, rates: np.ndarray) -> tuple[float, float]:
    """(s_v, sum_w k(v,w) mass(U_w)): the scale of the local part and the
    escape rate of disc v, from precomputed disc masses and cross rates."""
    scale = 1.0 if measure == "haar" else masses[v] * float(assign.p) ** assign.m
    iv = spec.labels.index(v)
    escape = sum(rates[iv, iw] * masses[w] for iw, w in enumerate(spec.labels) if w != v)
    return scale, escape


def kozyrev_eigenvalue(
    spec: KernelSpec,
    assign: DiscAssignment,
    B: PAdicCell,
    v,
    measure: str = "haar",
    tree_measure: TreeMeasure | None = None,
) -> float:
    """Closed-form generator eigenvalue of the Kozyrev wavelet in B inside disc v."""
    local = kozyrev_local_eigenvalue(assign.p, spec.alpha, B.level, assign.m)
    masses = _disc_masses(spec, assign, measure, tree_measure)
    scale, escape = _kozyrev_shift(spec, assign, v, measure, masses, spec.cross_rates())
    return scale * local - escape


# --- ultrametric wavelets -----------------------------------------------------------


def ultrametric_wavelet(
    dend: Dendrogram,
    nu: TreeMeasure,
    disc: CellDomain,
    node: DendrogramNode,
    k: int,
) -> np.ndarray:
    """Haar-like wavelet of a non-leaf node: nu(node)^(-1/2) times the k-th
    character of the cyclic group on its children, constant per child:
    one value per vertex disc, gathered onto the cells."""
    if node.is_leaf:
        raise LeafNode("ultrametric wavelets live on internal nodes")
    c = len(node.children)
    if k == 0:
        raise TrivialCharacter("k=0 is the constant on the node, not a wavelet")
    if not 1 <= k <= c - 1:
        raise ValueError(f"character index k must lie in 1..{c - 1}, got {k}")
    amp = float(nu.of(node)) ** -0.5
    pos = {label: i for i, label in enumerate(disc.assignment.labels)}
    per_leaf = np.zeros(len(pos) + 1, dtype=complex)  # filler last
    for ic, child in enumerate(node.children):
        per_leaf[[pos[label] for label in child.members]] = amp * np.exp(2j * math.pi * k * ic / c)
    return per_leaf[disc.leaf_index]


def ultrametric_eigenvalue(
    dend: Dendrogram,
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


# --- disc-constant block -----------------------------------------------------------


def laplacian_block_modes(
    spec: KernelSpec,
    assign: DiscAssignment,
    disc: CellDomain,
    measure: str = "haar",
    tree_measure: TreeMeasure | None = None,
) -> list[EigenPair]:
    """Eigenpairs of the vertex-level matrix k(v,w) * mass(U_w), lifted to
    functions constant on each disc and normalised in the cell inner
    product.  All eigenvalues are non-positive."""
    labels = spec.labels
    mass = np.array(list(_disc_masses(spec, assign, measure, tree_measure).values()))
    rates = spec.cross_rates()
    L = rates * mass[None, :]
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    evals, vecs, _ = weighted_symmetric_eig(L, mass)
    leaf_idx = _leaf_indices(spec, assign, disc)
    out = []
    for k in range(len(labels)):
        lifted = vecs[leaf_idx, k]
        out.append(EigenPair("block", "discs", k, float(evals[k]), lifted))
    return out


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


# --- full bases ----------------------------------------------------------------------


def _balls_by_level(assign: DiscAssignment, disc: CellDomain, label):
    """The balls of each level m..n-1 inside the labelled vertex disc, one
    list per level."""
    prefix = assign.discs[label].digits
    for d in range(assign.m, disc.level):
        suffixes = itertools.product(range(assign.p), repeat=d - assign.m)
        yield [PAdicCell(assign.p, prefix + suffix) for suffix in suffixes]


def full_basis(
    spec: KernelSpec,
    assign: DiscAssignment,
    disc: CellDomain,
    measure: str = "haar",
    tree_measure: TreeMeasure | None = None,
) -> EigenBasis:
    """Complete orthonormal eigenbasis of the level-n space.

    Haar measure: Kozyrev wavelets over every ball inside every disc plus
    the disc-constant block modes.  Tree measure with the ultrametric
    kernel: the constant, the ultrametric wavelets, and the Kozyrev
    wavelets (renormalised); other kernels replace the wavelet block by
    the measure-weighted block modes.  The functions are written once
    into the columns of one matrix, and all residuals are stamped by one
    batched ``verify_eigenpair`` against the assembled generator, which
    the basis keeps.
    """
    gen = generator(spec, assign, disc, measure, tree_measure)
    p = assign.p
    n_cells = len(disc)
    psi = np.zeros((n_cells, n_cells), dtype=complex)
    meta: list[tuple] = []  # (kind, support, index, lam) per column

    def add(kind, support, index, lam, vec):
        if len(meta) < n_cells:
            psi[:, len(meta)] = vec
        meta.append((kind, support, index, lam))

    masses = _disc_masses(spec, assign, measure, tree_measure)
    rates = spec.cross_rates()
    for label in assign.labels:
        s_v, escape = _kozyrev_shift(spec, assign, label, measure, masses, rates)
        for balls in _balls_by_level(assign, disc, label):
            local = kozyrev_local_eigenvalue(p, spec.alpha, balls[0].level, assign.m)
            lam = s_v * local - escape
            for B in balls:
                for j in range(1, p):
                    vec = kozyrev_wavelet(assign, disc, B, j)
                    if measure == "nu":
                        vec = vec / math.sqrt(s_v)
                    add("kozyrev", f"{label}:{B}", j, lam, vec)

    if measure == "nu" and spec.bullet is Bullet.ULTRAMETRIC:
        dend = assign.dendrogram
        add("constant", "domain", 0, 0.0, 1.0)
        delta = dend.delta_matrix()
        for node in dend.internal_nodes():
            gamma = ultrametric_eigenvalue(dend, delta, tree_measure, node, spec.alpha)
            support = ",".join(sorted(map(str, node.members)))
            for k in range(1, len(node.children)):
                add("ultrametric", support, k, gamma,
                    ultrametric_wavelet(dend, tree_measure, disc, node, k))
    else:
        for pair in laplacian_block_modes(spec, assign, disc, measure, tree_measure):
            add(pair.kind, pair.support, pair.index, pair.lam, pair.psi)

    if len(meta) != n_cells:
        raise IncompleteBasis(f"{len(meta)} basis functions for {n_cells} cells")
    residuals = verify_eigenpair(gen, psi, [lam for *_, lam in meta])
    psi.setflags(write=False)
    pairs = tuple(
        EigenPair(kind, support, index, lam, psi[:, k], float(residuals[k]))
        for k, (kind, support, index, lam) in enumerate(meta)
    )
    return EigenBasis(pairs, disc.cells, gen.measure, measure, psi, gen)
