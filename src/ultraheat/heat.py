"""Heat semigroups, spectral kernels, Cauchy solutions, and certified bounds.

The semigroup exp(tA) of a generator self-adjoint under its measure is
computed through the symmetrised eigendecomposition (scaling-and-squaring
through scipy is the fallback for anything else).  The heat kernel is the
spectral sum p(t,x,y) = sum_lambda e^(lambda t) psi(x) conj(psi(y)); the
two routes agree after measure weighting and both are exercised by the
tests.

Certified bounds
----------------
* Truncation: cutting the index tree at level ell replaces cross-disc
  rates inside each cut ball by the Vladimirov rate and widens the domain
  by filler cells.  The sup-norm gap between the two evolutions of a
  function (extended by zero onto the filler) is certified against

      t_max ||u||_inf (2 sum C_{w,v} Vol(U_v)
                       + Vol(filler) max |cut kernel on Z x filler|)

  with C_{w,v} = alpha |dist_p(U_w,U_v) - base(w,v)| / min(...)^(alpha+1)
  over ordered disc pairs inside one cut ball.  The certified constant
  carries a factor 2 on the C-sum (two-sided oscillation of the evolved
  function); the tighter one-sided variant is reported alongside.

* Kernel swap: two kernels over the same domain and measure satisfy
  ||T_a(t) - T_b(t)||_inf <= 2 t sum C~_{w,v} Vol(U_v) with the same
  mean-value constants formed from the two base matrices.

A bound violation raises instead of warning: the bounds are provable
facts about the operators, so a negative slack means a defect in the
constants or in the assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadKernel,
    BoundViolated,
    DimensionMismatch,
    IncompleteBasis,
    InvalidLevel,
    NegativeTime,
    NotSelfAdjoint,
)
from .linalg import weighted_symmetric_eig
from .operators import GeneratorMatrix, KernelSpec, generator, truncated_domain
from .padic import CellDomain, DiscAssignment, discretize, padic_distance
from .spectra import EigenBasis


@dataclass(frozen=True)
class SemigroupMatrix:
    """T(t) = exp(t A): stochastic, contractive in sup-norm."""

    t: float
    matrix: np.ndarray

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))

    def min_entry(self) -> float:
        return float(self.matrix.min())

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


@dataclass(frozen=True)
class HeatKernelTable:
    """Spectral heat kernel density p(t,x,y); symmetric, and p * measure is
    the transition matrix."""

    t: float
    matrix: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    measured_sup_error: float
    theoretical_bound: float
    tight_bound: float
    constants: dict
    volumes: dict
    meta: dict = field(default_factory=dict)
    per_t_slack: float | None = None

    @property
    def slack(self) -> float:
        """Worst slack: per-time when certified on a grid, else endpoint."""
        if self.per_t_slack is not None:
            return self.per_t_slack
        return self.theoretical_bound - self.measured_sup_error


class _Evolver:
    """One eigendecomposition, many times t."""

    def __init__(self, A: GeneratorMatrix):
        self.measure = A.measure
        self.d = np.sqrt(A.measure)
        evals, vecs, _ = weighted_symmetric_eig(A.matrix, A.measure)
        self.evals = evals
        self.Q = vecs * self.d[:, None]  # orthonormal columns of the symmetrisation

    def matrix(self, t: float) -> np.ndarray:
        core = (self.Q * np.exp(t * self.evals)[None, :]) @ self.Q.T
        return core * (self.d[None, :] / self.d[:, None])

    def over_grid(self, u: np.ndarray, times: np.ndarray) -> np.ndarray:
        """T(t) u for every t of the grid as the columns of one cells x times
        matrix, from a single coefficient vector of u.

        The times form a stack of matrix-vector products rather than one
        matrix product, so each column carries the rounding of T(t) u
        applied alone, whatever grid it is evaluated on.
        """
        coeff = self.Q.T @ (self.d * u)
        scaled = np.exp(np.outer(times, self.evals)) * coeff
        return (self.Q @ scaled[:, :, None])[:, :, 0].T / self.d[:, None]


def semigroup(A: GeneratorMatrix, t: float) -> SemigroupMatrix:
    """exp(tA) via the symmetrised eigendecomposition, falling back to
    scaling-and-squaring only when the generator is not measure-symmetric."""
    if t < 0:
        raise NegativeTime(f"t={t}")
    try:
        mat = _Evolver(A).matrix(t)
    except NotSelfAdjoint:
        import scipy.linalg  # only this fallback needs scipy; it would double import time

        mat = scipy.linalg.expm(t * A.matrix)
    return SemigroupMatrix(t, mat)


def heat_kernel(basis: EigenBasis, t: float) -> HeatKernelTable:
    """p(t,x,y) = sum_lambda e^(lambda t) psi(x) conj(psi(y))."""
    if t < 0:
        raise NegativeTime(f"t={t}")
    if len(basis) != len(basis.cells):
        raise IncompleteBasis(f"{len(basis)} eigenpairs over {len(basis.cells)} cells")
    psi = basis.psi_matrix()
    weights = np.exp(t * basis.eigenvalues())
    table = (psi * weights[None, :]) @ psi.conj().T
    imag = float(np.max(np.abs(table.imag)))
    if imag > 1e-10:
        raise ValueError(f"imaginary parts failed to cancel ({imag:g})")
    return HeatKernelTable(t, table.real)


def solve_cauchy(basis: EigenBasis, u0: np.ndarray, t: float) -> np.ndarray:
    """Expand u0 in the eigenbasis, scale coefficients by e^(lambda t),
    reconstruct."""
    if len(basis) != len(basis.cells):
        raise IncompleteBasis(f"{len(basis)} eigenpairs over {len(basis.cells)} cells")
    u0 = np.asarray(u0)
    if u0.shape != (len(basis.cells),):
        raise DimensionMismatch(f"u0 of shape {u0.shape} over {len(basis.cells)} cells")
    psi = basis.psi_matrix()
    coeff = psi.conj().T @ (basis.measure * u0)
    out = psi @ (np.exp(t * basis.eigenvalues()) * coeff)
    if np.iscomplexobj(u0):
        return out
    imag = float(np.max(np.abs(out.imag)))
    if imag > 1e-9 * max(1.0, float(np.max(np.abs(out.real)))):
        raise ValueError(f"imaginary parts failed to cancel ({imag:g})")
    return out.real


def t_grid(t_max: float, points: int = 64) -> np.ndarray:
    """Endpoints plus log-spaced interior samples of [0, t_max]."""
    if t_max < 0:
        raise NegativeTime(f"t_max={t_max}")
    if t_max == 0:
        return np.array([0.0])
    interior = np.geomspace(t_max * 1e-4, t_max, points)
    return np.unique(np.concatenate([[0.0, t_max], interior]))


def _mean_value_constant(alpha: float, a: float, b: float) -> float:
    """alpha |a - b| / min(a,b)^(alpha+1), the derivative bound for x^-alpha."""
    lo = min(a, b)
    if lo <= 0:
        raise BadKernel("mean-value constant needs positive rates on both sides")
    return alpha * abs(a - b) / lo ** (alpha + 1.0)


def truncation_bound(
    spec: KernelSpec,
    assign: DiscAssignment,
    disc: CellDomain,
    ell: int,
    t_max: float,
    u: np.ndarray,
) -> BoundReport:
    """Certify the truncated-vs-original semigroup gap at cut level ell.

    Measures sup over a t-grid and over the cells of the original domain
    of |T_ell(t) u~ - T(t) u| with u~ the zero extension, and checks it
    against the derived constant, computed first (a zero base rate raises
    BadKernel before any generator).  Raises BoundViolated on negative slack.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (len(disc),):
        raise DimensionMismatch(f"u of shape {u.shape} over {len(disc)} cells")
    dom, cut = truncated_domain(assign, ell, disc.level, spec)

    # ordered pairs of distinct vertex discs inside one cut ball
    constants: dict = {}
    vol_disc = float(assign.p) ** -assign.m
    labels = assign.labels
    node_of = dict(zip(labels, dom.block_index[dom.leaf_start].tolist()))
    idx = spec.label_index()
    csum = 0.0
    for w in labels:
        for v in labels:
            if w == v or node_of[w] != node_of[v]:
                continue
            dist_p = padic_distance(assign.discs[w], assign.discs[v])
            base = float(spec.base[idx[w], idx[v]])
            c = _mean_value_constant(spec.alpha, dist_p, base)
            constants[(w, v)] = c
            csum += c * vol_disc

    A = generator(spec, assign, disc, "haar")
    A_ell = generator(spec, assign, dom, "haar")

    positions = disc.positions_in(dom)
    u_ext = np.zeros(len(dom))
    u_ext[positions] = u

    grid = t_grid(t_max)
    gap = _Evolver(A_ell).over_grid(u_ext, grid)[positions] - _Evolver(A).over_grid(u, grid)
    gaps = np.max(np.abs(gap), axis=0)
    measured = float(gaps.max())
    max_cut_rate = cut.max_rate_z_to_filler()
    sup_u = float(np.max(np.abs(u))) if u.size else 0.0

    factor = sup_u * (2.0 * csum + dom.vol_filler * max_cut_rate)
    proof_bound = t_max * factor
    tight_bound = t_max * sup_u * (csum + dom.vol_filler * max_cut_rate)
    per_t_slack = float(np.min(grid * factor - gaps))
    report = BoundReport(
        measured_sup_error=measured,
        theoretical_bound=proof_bound,
        tight_bound=tight_bound,
        constants=constants,
        volumes={
            "vol_z": dom.vol_z,
            "vol_filler": dom.vol_filler,
            "vol_disc": vol_disc,
            "max_cut_rate": max_cut_rate,
        },
        meta={"ell": ell, "t_max": t_max, "bullet": spec.bullet.value, "alpha": spec.alpha},
        per_t_slack=per_t_slack,
    )
    if report.slack < -1e-9:
        raise BoundViolated(
            f"truncation bound violated: worst per-time slack {report.slack:.17g} "
            f"(measured sup {measured:.17g}, bound at t_max {proof_bound:.17g})"
        )
    return report


def kernel_swap_bound(
    spec_a: KernelSpec,
    spec_b: KernelSpec,
    assign: DiscAssignment,
    disc: CellDomain,
    t: float,
) -> BoundReport:
    """Certify ||T_a(t) - T_b(t)||_inf <= 2 t sum C~_{w,v} Vol(U_v); the
    constants come first (a zero base rate raises BadKernel at once)."""
    if spec_a.labels != spec_b.labels:
        raise ValueError("kernel specs must share the vertex labels")
    if spec_a.alpha != spec_b.alpha:
        raise ValueError("kernel specs must share alpha")
    alpha = spec_a.alpha
    idx = spec_a.label_index()
    vol_disc = float(assign.p) ** -assign.m
    constants: dict = {}
    csum = 0.0
    for w in spec_a.labels:
        for v in spec_a.labels:
            if w == v:
                continue
            a = float(spec_a.base[idx[w], idx[v]])
            b = float(spec_b.base[idx[w], idx[v]])
            c = _mean_value_constant(alpha, a, b)
            constants[(w, v)] = c
            csum += c * vol_disc

    A = generator(spec_a, assign, disc, "haar")
    B = generator(spec_b, assign, disc, "haar")
    Ta = semigroup(A, t).matrix
    Tb = semigroup(B, t).matrix
    measured = float(np.max(np.abs(Ta - Tb).sum(axis=1)))
    bound = 2.0 * t * csum
    report = BoundReport(
        measured_sup_error=measured,
        theoretical_bound=bound,
        tight_bound=bound,
        constants=constants,
        volumes={"vol_disc": vol_disc},
        meta={
            "t": t,
            "bullet_a": spec_a.bullet.value,
            "bullet_b": spec_b.bullet.value,
            "alpha": alpha,
        },
    )
    if report.slack < -1e-9:
        raise BoundViolated(
            f"swap bound violated: measured {measured:.17g} > bound {bound:.17g}"
        )
    return report


def _level_gap(disc_coarse: CellDomain, disc_fine: CellDomain) -> int:
    """How many levels the fine discretisation lies below the coarse one.

    Both must be full discretisations of one assignment (``cut_level``
    None, as ``discretize`` makes them), so that their cells line up leaf
    by leaf in digit order.
    """
    if disc_fine.assignment is not disc_coarse.assignment:
        raise ValueError("discretisations of different disc assignments")
    gap = disc_fine.level - disc_coarse.level
    if gap < 0:
        raise ValueError(f"level {disc_fine.level} is coarser than level {disc_coarse.level}")
    if disc_coarse.cut_level is not None or disc_fine.cut_level is not None:
        raise ValueError("a truncated domain is not a discretisation")
    return gap


def project_pointwise(disc_fine: CellDomain, disc_coarse: CellDomain, u: np.ndarray):
    """Evaluate a fine-level function at the zero-padded representative of
    every coarse cell: fine cell i * p^gap for coarse cell i.  ``u`` may
    carry further axes after the cell axis."""
    step = disc_fine.p ** _level_gap(disc_coarse, disc_fine)
    return np.asarray(u)[np.arange(len(disc_coarse)) * step]


def embed_piecewise(disc_coarse: CellDomain, disc_fine: CellDomain, u: np.ndarray):
    """Extend a coarse-level function to the fine level, constant per cell:
    fine cell i lies in coarse cell i // p^gap.  ``u`` may carry further
    axes after the cell axis."""
    step = disc_fine.p ** _level_gap(disc_coarse, disc_fine)
    return np.asarray(u)[np.arange(len(disc_fine)) // step]


def convergence_study(
    spec: KernelSpec,
    assign: DiscAssignment,
    u0: np.ndarray,
    n_range,
    tau: float,
    measure: str = "haar",
    tree_measure=None,
) -> list[tuple[int, float]]:
    """Sup-over-time gap between coarse evolutions and the reference.

    u0 lives on a fine reference level (inferred from its length); for
    every n it is sampled down, evolved at level n over the whole t-grid,
    extended back, and compared against the reference evolution.  The
    reference level reuses the reference eigendecomposition.
    """
    u0 = np.asarray(u0, dtype=float)
    k, cells = 1, len(assign.labels) * assign.p
    while cells < len(u0):
        k, cells = k + 1, cells * assign.p
    if cells != len(u0):
        raise DimensionMismatch(f"u0 length {len(u0)} is not |V| * p^k for any k >= 1")
    n_ref = assign.m + k
    disc_ref = discretize(assign, n_ref)
    levels = list(n_range)
    for n in levels:
        if not assign.m < n <= n_ref:
            raise InvalidLevel(f"level {n} outside ({assign.m}, {n_ref}]")
    ev_ref = _Evolver(generator(spec, assign, disc_ref, measure, tree_measure))
    grid = t_grid(tau)
    refs = ev_ref.over_grid(u0, grid)

    rows: list[tuple[int, float]] = []
    for n in levels:
        if n == n_ref:
            disc_n, ev_n = disc_ref, ev_ref
        else:
            disc_n = discretize(assign, n)
            ev_n = _Evolver(generator(spec, assign, disc_n, measure, tree_measure))
        un0 = project_pointwise(disc_ref, disc_n, u0)
        lifted = embed_piecewise(disc_n, disc_ref, ev_n.over_grid(un0, grid))
        rows.append((n, float(np.max(np.abs(lifted - refs)))))
    return rows
