"""Heat semigroups, spectral kernels, Cauchy solutions, and certified bounds.

``heat_kernel``, ``solve_cauchy``, ``truncation_bound``,
``kernel_swap_bound`` and ``convergence_study`` evolve through one
evolver, ``_BallEvolver``, on the closed-form pure-ball spectrum of
``spectra.ball_spectrum``, with no generator: on each pure ball T(t) is
the coarse K x K transition plus sum_d e^(lambda_d t) (E_{d+1} - E_d),
with E_d the mean over the level-d balls, and T(0) is the identity.
``disc_semigroup`` is the independent second route (the ``heat``
subcommand's two-route gap): exp(tA) of the generator assembled on a
discretisation, through one K x K and K s x s eigensolves of its disc
blocks, with a certified bound on what lumping the blocks leaves out.
The dense ``semigroup``, exp(tA) through one N x N symmetrised
eigendecomposition, is the test oracle.  Both raise ``NotSelfAdjoint``
for a generator not self-adjoint under its measure.  Every routine
over cells takes the ``CellDomain`` alone and reads the assignment and its
tree measure from it; ``convergence_study`` builds its discretisations
from the assignment it is given.  Every time must be finite and
non-negative (``NegativeTime``).  ``heat_kernel`` and ``semigroup``
return the N x N array, and ``disc_semigroup`` the pair (T2, bound).
``heat_table``, what the ``heat`` subcommand runs, holds no N x N array:
both routes split by vertex disc, so it certifies them from their K x K
and (K, s, s) block forms, reading the generator once, in row blocks of
whole discs (``operators.generator_rows``), and returns the table in the
block form it is computed in: one value per pair of distinct discs and,
per disc, one value per common-prefix level of two of its cells, n - m +
1 in all, which ``serialize.matrix_export`` writes.  ``heat_kernel``,
``disc_semigroup`` and ``_BallEvolver.matrix`` lift the same block forms
onto the cells.

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
constants or in the assembly; inf or NaN raises CertificateFailed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadKernel,
    BoundViolated,
    CertificateFailed,
    DimensionMismatch,
    InvalidLevel,
    NegativeTime,
    RateOverflow,
)
from .linalg import (check_symmetric, positive_roots, symmetrised_rows, symmetry_defect,
                     weighted_symmetric_eig)
from .operators import (BLOCK_ENTRIES, GeneratorMatrix, KernelSpec, _check_dense, _check_labels,
                        _measure_vector, generator_rows, prefix_blocks, truncated_domain)
from .padic import CellDomain, DiscAssignment, discretize, padic_distance
from .spectra import ball_spectrum


@dataclass(frozen=True)
class BoundReport:
    """A certified bound, with the fields that ``bounds`` writes; ``slack``
    is the worst per-time slack of a truncation bound on its time grid, or
    the endpoint slack bound - measured of a kernel swap."""

    measured_sup_error: float
    theoretical_bound: float
    tight_bound: float
    constants_sum: float
    volumes: dict
    slack: float


class _BallEvolver:
    """T(t) u on a cell domain from ``spectra.ball_spectrum``: on pure ball a,

        T(t) u = (coarse part)_a + sum_d e^(lambda_d t) (E_{d+1} u - E_d u)

    with E_d the mean over the level-d balls, lambda_d a's level-d Kozyrev
    eigenvalue and the coarse part the pure-ball means evolved by the K x K
    transition V e^(Lambda t) V^T M (V orthonormal under the masses M).
    """

    def __init__(self, spec: KernelSpec, dom: CellDomain, measure: str = "haar"):
        spectrum = ball_spectrum(spec, dom, measure)
        self.p, self.level, self.groups, self.evals = dom.p, dom.level, [], spectrum.evals
        self.vecs, self.mass, self.sizes = spectrum.vecs, spectrum.mass, spectrum.sizes
        for d0 in np.unique(spectrum.levels).tolist():  # pure balls of one level: one cell block
            members = np.flatnonzero(spectrum.levels == d0)
            cells = spectrum.starts[members, None] + np.arange(spectrum.sizes[members[0]])
            self.groups.append((d0, members, cells, spectrum.kozyrev[members, :dom.level - d0]))
        self.ball = np.repeat(np.arange(len(self.sizes)), self.sizes)  # the pure ball of each cell

    # e^(lambda t) of a rounding-positive lambda overflows at a huge t: the
    # result holds inf or NaN, with no warning, and the callers refuse it
    @np.errstate(over="ignore", invalid="ignore")
    def over_grid(self, u: np.ndarray, times: np.ndarray) -> np.ndarray:
        """T(t) u for every t of the grid (u itself at t = 0) as the columns
        of one cells x times matrix.  Only elementwise work and one stack of
        K x K matrix-vector products depend on t, so each column carries the
        rounding of T(t) u applied alone, whatever grid it is evaluated on."""
        u = np.asarray(u, dtype=float)
        times = np.asarray(times, dtype=float)
        p, n = self.p, self.level
        values = [u[cells] for _, _, cells, _ in self.groups]
        means = np.empty(len(self.mass))
        for (_, members, _, _), x in zip(self.groups, values):
            means[members] = x.mean(axis=1)
        coeff = self.vecs.T @ (self.mass * means)
        scaled = np.exp(np.outer(times, self.evals)) * coeff
        coarse = (self.vecs @ scaled[:, :, None])[:, :, 0].T

        out = np.empty((len(u), len(times)))
        for (d0, members, cells, lam), x in zip(self.groups, values):
            acc = np.repeat(coarse[members, None, :], cells.shape[1], axis=1)
            prev = means[members, None]
            for k, d in enumerate(range(d0, n)):
                finer = x.reshape(len(members), p ** (d + 1 - d0), -1).mean(axis=2)
                diff = finer - np.repeat(prev, p, axis=1)
                decay = np.exp(lam[:, k, None] * times)
                by_ball = acc.reshape(*finer.shape, -1, len(times))  # a view of acc
                by_ball += diff[:, :, None, None] * decay[:, None, None, :]
                prev = finer
            out[cells.ravel()] = acc.reshape(-1, len(times))
        out[:, times == 0] = u[:, None]
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def factors(self, t: float):
        """T(t) in block form: the coarse K x K transition V e^(Lambda t) V^T M
        (V orthonormal under the masses M) divided by the target pure ball's
        cell count, which T(t) is between two distinct pure balls, and per
        group of pure balls of one level d0 the (members, n - d0 + 1) table
        of T(t) on each by common-prefix level: between two of a ball's
        cells that share d0 + j digits it is column j, the ball's coarse
        entry plus the sum over d0 <= d < n of e^(lambda_d t) (P_{d+1} -
        P_d), with P_d(x, y) = [x and y share their level-d ball] / p^(n - d).
        ``operators.prefix_blocks`` lifts a table onto the ball's cells.
        At t = 0 the coarse part is 0 and every table 1 at j = n - d0 (a
        cell with itself) and 0 below: the identity."""
        p, n = self.p, self.level
        if t == 0:
            return (np.zeros((len(self.sizes),) * 2),
                    [np.repeat(np.eye(n - d0 + 1)[-1:], len(members), axis=0)
                     for d0, members, _, _ in self.groups])
        coarse = (self.vecs * np.exp(t * self.evals)[None, :]) @ self.vecs.T
        coarse *= (self.mass / self.sizes)[None, :]
        tables = []
        for d0, members, _, lam in self.groups:
            # steps[k, j]: P_{d0+k+1} - P_{d0+k} on two cells sharing d0 + j digits
            k, j = np.arange(n - d0)[:, None], np.arange(n - d0 + 1)[None, :]
            weight = float(p) ** (np.arange(d0, n + 1) - n)  # 1 / p^(n - d), d = d0 .. n
            steps = np.where(j > k, weight[1:, None], 0) - np.where(j >= k, weight[:-1, None], 0)
            tables.append(coarse[members, members][:, None] + np.exp(lam * t) @ steps)
        return coarse, tables

    def matrix(self, t: float) -> np.ndarray:
        """T(t) as an N x N array, lifted from ``factors(t)``: the identity
        itself at t = 0."""
        _check_dense(len(self.ball))
        coarse, tables = self.factors(t)
        return _lift(coarse, self.ball, [(cells, prefix_blocks(table, self.p)) for
                                         (_, _, cells, _), table in zip(self.groups, tables)])


def _lift(coarse: np.ndarray, ball: np.ndarray, stacks) -> np.ndarray:
    """The N x N matrix that is coarse[a, b] between cells of distinct pure
    balls a and b (``ball`` numbers the pure ball of every cell) and the
    given block on each pure ball: ``stacks`` pairs the (members, s) cells
    of pure balls of one size with their (members, s, s) blocks."""
    out = coarse[ball].take(ball, axis=1)
    for where, blocks in stacks:
        out[where[:, :, None], where[:, None, :]] = blocks
    return out


def check_time(t: float, name: str = "t") -> None:
    """Raise NegativeTime unless t is a finite number >= 0."""
    if not 0 <= t < math.inf:
        raise NegativeTime(f"{name}={t} is not a finite time >= 0")


def semigroup(A: GeneratorMatrix, t: float) -> np.ndarray:
    """exp(tA) via one N x N symmetrised eigendecomposition: the tests'
    oracle for ``disc_semigroup`` and the closed-form routes.  Every
    generator the library builds is self-adjoint under its measure; one
    that is not raises NotSelfAdjoint."""
    check_time(t)
    d = np.sqrt(A.measure)
    evals, vecs = weighted_symmetric_eig(A.matrix, A.measure)
    Q = vecs * d[:, None]  # orthonormal columns of the symmetrisation
    core = (Q * np.exp(t * evals)[None, :]) @ Q.T
    return core * (d[None, :] / d[:, None])


def _disc_blocks(dom: CellDomain) -> list[range]:
    """The rows of a discretisation in blocks of whole discs, in order: one
    disc per block once a disc's s x N entries reach BLOCK_ENTRIES, else as
    many discs as stay within it, so that numpy's cost per call stays small
    next to the work of a call on small domains and no block is N x N on
    large ones."""
    K = len(dom.balls)
    s = len(dom) // K
    per = max(1, BLOCK_ENTRIES // (s * len(dom)))
    return [range(k * s, min(k + per, K) * s) for k in range(0, K, per)]


def _lumped(blocks, measure: np.ndarray, dom: CellDomain, t: float):
    """e^(tS^) of ``disc_semigroup`` in block form, its bound and ||A||_inf,
    from the generator's row blocks, read once: ``blocks`` yields (cells,
    A[cells, :], A[:, cells].T) over runs of whole discs that cover the
    domain in order, and the blocks are overwritten.

    (S + S^T) / 2 adds the same two floats in either order, so block (l, k)
    of S holds the numbers of block (k, l): C_kl = C_lk = s c_kl is taken
    from the rows of the pair's lower-numbered disc k as they are read, and
    with them k's diagonal block B_k, r_k and B_k's shift.  C[k, :] is then
    complete, so each block's share of delta is taken at once; the symmetry
    defect is checked after the pass, before any eigensolve.  Returns (lift,
    stacks, bound, norm): e^(tS^) is lift[k, l] = (V e^(tw) V^T)_kl / s
    between discs k != l and stacks[k] on disc k, and norm is 2 max |A_ii|,
    the largest absolute row sum of a generator."""
    if dom.cut_level is not None:
        raise ValueError("a truncated domain is not a discretisation")
    K = len(dom.balls)
    s = len(dom) // K
    d = positive_roots(measure)
    disc, cell = np.arange(K), np.arange(s)
    C, B, r = np.empty((K, K)), np.empty((K, s, s)), np.empty(K)
    asym, largest, diagonal, delta = [], [], [], []
    for cells, rows, cols in blocks:
        diagonal.append(np.max(np.abs(rows[np.arange(len(cells)), cells])))
        S, St = symmetrised_rows(rows, cols, d[cells.start:cells.stop], d)
        defect, top = symmetry_defect(S, St)
        asym.append(defect)
        largest.append(top)
        S += St
        S *= 0.5
        lo, hi = cells.start // s, cells.stop // s  # the block's discs
        own = disc[lo:hi]
        by_disc = S.reshape(hi - lo, s, K, s)
        B[lo:hi] = by_disc[own - lo, :, own, :]
        sums = B[lo:hi].sum(axis=2)
        r[lo:hi] = sums.mean(axis=1)
        shift = sums - r[lo:hi, None]
        B[lo:hi, cell, cell] -= shift
        later = disc[None, :] > own[:, None]  # the pairs whose lower-numbered disc is the row's
        pair = s * by_disc.mean(axis=(1, 3))
        C[lo:hi] = np.where(later, pair, C[lo:hi])
        C[:, lo:hi] = np.where(later.T, pair.T, C[:, lo:hi])
        C[own, own] = r[lo:hi]
        by_disc -= C[lo:hi, None, :, None] / s  # S - S^ off the diagonal blocks
        np.abs(by_disc, out=by_disc)
        by_disc[own - lo, :, own, :] = 0.0
        delta.append(np.max(by_disc.sum(axis=(2, 3)) + np.abs(shift)))
    check_symmetric(np.max(asym), np.max(largest))
    delta = np.max(delta)

    w, V = np.linalg.eigh(C)
    wb, Vb = np.linalg.eigh(B)
    lift = (V * np.exp(t * w)) @ V.T / s
    stacks = (Vb * np.exp(t * wb)[:, None, :]) @ Vb.transpose(0, 2, 1)
    stacks -= (np.exp(t * r) / s)[:, None, None]
    stacks += lift[disc, disc][:, None, None]
    lam_max = np.max(np.concatenate([w, wb.ravel()]))
    bound = t * delta * np.exp(t * np.maximum(0.0, lam_max + delta)) * (d.max() / d.min())
    return lift, stacks, float(bound), 2.0 * float(np.max(diagonal))


def disc_semigroup(A: GeneratorMatrix, dom: CellDomain, t: float) -> tuple[np.ndarray, float]:
    """exp(tA) of a generator assembled on a discretisation, through its K
    disc blocks of s = p^(n - m) cells, and a bound on its entrywise error.

    The symmetrisation S = D A D^-1 (D = diag(sqrt(mu)), checked as
    ``linalg.symmetrised`` does) becomes S^ when each cross block is
    replaced by its mean c_kl and the diagonal of each diagonal block B_k is
    shifted by -(r_i - r_k), r_i the row sums of B_k and r_k their mean.
    S^ is strongly lumpable over the discs (Kemeny & Snell, Finite Markov
    Chains, 6.3), so with J the s x s ones matrix

        e^(tS^) = lift(e^(tC)) / s + blockdiag(e^(tB^_k) - e^(t r_k) J / s),

    C_kl = s c_kl (k != l) and C_kk = r_k: one K x K and one batched
    (K, s, s) eigh, and T2 = D^-1 e^(tS^) D.  Every generator the library
    assembles on a discretisation is lumpable, so S - S^ is rounding.  Its
    largest absolute row sum delta is at least its 2-norm (it is
    symmetric), and Duhamel's formula with Weyl's inequality bound

        max |e^(tA) - T2| <= t delta e^(t max(0, lambda_max(S^) + delta)) max d / min d,

    the bound returned with T2 (inf or NaN when it overflows).  A is read
    as one row block by the route that ``heat_table`` runs on the row
    blocks of the generator it assembles, and T2 is that route's block
    form lifted onto the cells.  Raises
    NegativeTime for a t that is not a finite time >= 0 and ValueError for
    a truncated domain, before any N x N work.
    """
    check_time(t)
    lift, stacks, bound, _ = _lumped([(range(len(dom)), A.matrix.copy(), A.matrix.T.copy())],
                                     A.measure, dom, t)
    cells = np.arange(len(dom))
    K, s = stacks.shape[:2]
    T = _lift(lift, cells // s, [(cells.reshape(K, s), stacks)])
    d = np.sqrt(A.measure)
    T *= d[None, :]
    T /= d[:, None]
    return T, bound


def heat_kernel(spec: KernelSpec, dom: CellDomain, t: float,
                measure: str = "haar") -> np.ndarray:
    """The N x N array p(t, x, y) = T(t)(x, y) / mu(y), with T(t) from the
    closed-form pure-ball spectrum (``_BallEvolver.matrix``) and mu the
    cell measure."""
    check_time(t)
    evolver = _BallEvolver(spec, dom, measure)
    return evolver.matrix(t) / _measure_vector(dom, measure)[None, :]


def heat_table(spec: KernelSpec, disc: CellDomain, t: float, measure: str = "haar"):
    """The heat kernel p(t) of ``heat_kernel`` on a discretisation in its
    block form, and the certificates of its two routes, with no N x N
    array.

    The pure balls of a discretisation are its K vertex discs of s = p^(n -
    m) cells, and the measure is constant on each, so p(t) = T1(t) / mu is
    cross[a, b] = coarse[a, b] / mu(b) between distinct discs a and b (a
    K x K array whose diagonal is unused) and, on disc a, levels[a, j] =
    table[a, j] / mu(a) between two cells that share m + j digits: the
    (K, n - m + 1) tables of ``_BallEvolver.factors``, which
    ``operators.prefix_blocks`` lifts onto each disc's s x s block.  T2 is
    the lumped route of ``disc_semigroup`` on the generator's row blocks
    (``generator_rows``, read once, in order), which never reads
    ``ball_spectrum``; the gap and T2's row sums are taken on the K x K
    values and on the (K, s, s) diagonal blocks, T1's lifted from its
    tables.  Returns ((cross, levels), {"two_route_gap": max |p(t) mu -
    T2| plus T2's bound, "row_sum_defect": max |T2 1 - 1|, "gap_scale":
    max(1e-12, 4 eps ||A||_inf t)}); the values may be inf or NaN where a
    route overflows.
    """
    check_time(t)
    coarse, (table,) = _BallEvolver(spec, disc, measure).factors(t)  # one group: the K discs
    mu = _measure_vector(disc, measure)
    generator_blocks = generator_rows(spec, disc, measure, _disc_blocks(disc))
    K, s = len(coarse), len(disc) // len(coarse)
    mu_disc, mu_cell = mu[::s], mu.reshape(K, 1, s)
    d_disc, d_cell = np.sqrt(mu_disc), np.sqrt(mu_cell)
    off = ~np.eye(K, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite certificate is reported
        lift, own2, bound, norm = _lumped(generator_blocks(), mu, disc, t)
        cross2 = np.where(off, lift * d_disc[None, :] / d_disc[:, None], 0.0)  # T2 between discs
        own2 *= d_cell
        own2 /= d_cell.transpose(0, 2, 1)  # T2 on each disc
        cross, levels = coarse / mu_disc, table / mu_disc[:, None]
        gap = np.maximum(np.max(np.abs(cross * mu_disc - cross2)[off], initial=0.0),
                         np.max(np.abs(prefix_blocks(levels, disc.p) * mu_cell - own2))) + bound
        defect = np.max(np.abs(s * cross2.sum(axis=1)[:, None] + own2.sum(axis=2) - 1.0))
    scale = max(1e-12, 4 * np.finfo(float).eps * norm * t)
    return (cross, levels), {"two_route_gap": float(gap), "row_sum_defect": float(defect),
                             "gap_scale": scale}


def solve_cauchy(spec: KernelSpec, dom: CellDomain, u0: np.ndarray, t: float,
                 measure: str = "haar") -> np.ndarray:
    """T(t) u0 through ``_BallEvolver`` (u0 itself at t = 0); a complex u0
    evolves its real and imaginary parts separately."""
    check_time(t)
    u0 = np.asarray(u0)
    if u0.shape != (len(dom),):
        raise DimensionMismatch(f"u0 of shape {u0.shape} over {len(dom)} cells")
    evolver = _BallEvolver(spec, dom, measure)
    if np.iscomplexobj(u0):
        return evolver.over_grid(u0.real, [t])[:, 0] + 1j * evolver.over_grid(u0.imag, [t])[:, 0]
    return evolver.over_grid(u0, [t])[:, 0]


def t_grid(t_max: float, points: int = 64) -> np.ndarray:
    """0, t_max and log-spaced samples from max(t_max * 1e-4, 5e-324) to t_max."""
    check_time(t_max, "t_max")
    if t_max == 0:
        return np.array([0.0])
    interior = np.geomspace(max(t_max * 1e-4, math.ulp(0.0)), t_max, points)
    return np.unique(np.concatenate([[0.0, t_max], interior]))


def _mean_value_constants(alpha: float, pairs, vol_disc: float) -> tuple[float, float]:
    """Sum alpha |a - b| / min(a,b)^(alpha+1), the derivative bound for
    x^-alpha, over each ((w, v), a, b) of ``pairs`` from int 0, and vol_disc
    times each from 0.0, both left to right (unlike Python 3.12's sum).  A
    power beyond the float range is inf; a constant not finite raises RateOverflow."""
    total, csum = 0, 0.0
    for key, a, b in pairs:
        if min(a, b) <= 0:
            raise BadKernel("mean-value constant needs positive rates on both sides")
        try:
            power = min(a, b) ** (alpha + 1.0)
        except OverflowError:
            power = math.inf
        c = alpha * abs(a - b) / power if power > 0 else math.inf
        if not math.isfinite(c):
            raise RateOverflow(f"the mean-value constant of {key} overflows a float")
        total += c
        csum += c * vol_disc
    return total, csum


def _gated(report: BoundReport, kind: str, detail: str) -> BoundReport:
    """The report, unless its error or bound (>= 0 or NaN) is not finite
    (CertificateFailed) or its slack is below -1e-9 (BoundViolated)."""
    measured, bound = report.measured_sup_error, report.theoretical_bound
    if not math.isfinite(measured + bound):
        raise CertificateFailed(f"{kind} bound not finite: measured {measured:.17g}, bound {bound:.17g}")
    if not report.slack >= -1e-9:
        raise BoundViolated(f"{kind} bound violated: {detail}")
    return report


def truncation_bound(
    spec: KernelSpec,
    disc: CellDomain,
    ell: int,
    t_max: float,
    u: np.ndarray,
) -> BoundReport:
    """Certify the truncated-vs-original semigroup gap at cut level ell.

    Measures sup over a t-grid and over the cells of the original domain
    of |T_ell(t) u~ - T(t) u| with u~ the zero extension, and checks it
    against the derived constant, computed first (a zero base rate raises
    BadKernel before any evolution).  Both evolutions run through
    ``_BallEvolver``, so no N x N array is built.  Raises NegativeTime for
    a t_max that is not a finite time >= 0, before any domain; ``_gated``
    raises CertificateFailed or BoundViolated on the report.
    """
    check_time(t_max, "t_max")
    u = np.asarray(u, dtype=float)
    if u.shape != (len(disc),):
        raise DimensionMismatch(f"u of shape {u.shape} over {len(disc)} cells")
    assign = disc.assignment
    _check_labels(assign, spec)
    dom, cut = truncated_domain(assign, ell, disc.level, spec)

    # ordered pairs of distinct vertex discs inside one cut ball
    vol_disc = float(assign.p) ** -assign.m
    labels, node = assign.labels, dom.block_index[dom.leaf_start].tolist()
    constants_sum, csum = _mean_value_constants(spec.alpha, (
        ((w, v), padic_distance(assign.discs[w], assign.discs[v]), float(spec.base[i, j]))
        for i, w in enumerate(labels) for j, v in enumerate(labels) if i != j and node[i] == node[j]
    ), vol_disc)

    positions = disc.positions_in(dom)
    u_ext = np.zeros(len(dom))
    u_ext[positions] = u

    grid = t_grid(t_max)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN error, refused by _gated
        gap = (_BallEvolver(spec, dom).over_grid(u_ext, grid)[positions]
               - _BallEvolver(spec, disc).over_grid(u, grid))
    gaps = np.max(np.abs(gap), axis=0)
    measured = float(gaps.max())
    max_cut_rate = cut.max_rate_z_to_filler()
    sup_u = float(np.max(np.abs(u))) if u.size else 0.0

    factor = sup_u * (2.0 * csum + dom.vol_filler * max_cut_rate)
    proof_bound = t_max * factor
    tight_bound = t_max * sup_u * (csum + dom.vol_filler * max_cut_rate)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: refused by _gated
        slack = float(np.min(grid * factor - gaps))
    report = BoundReport(
        measured_sup_error=measured,
        theoretical_bound=proof_bound,
        tight_bound=tight_bound,
        constants_sum=constants_sum,
        volumes={
            "vol_z": dom.vol_z,
            "vol_filler": dom.vol_filler,
            "vol_disc": vol_disc,
            "max_cut_rate": max_cut_rate,
        },
        slack=slack,
    )
    return _gated(report, "truncation", f"worst per-time slack {slack:.17g} "
                  f"(measured sup {measured:.17g}, bound at t_max {proof_bound:.17g})")


def kernel_swap_bound(
    spec_a: KernelSpec,
    spec_b: KernelSpec,
    disc: CellDomain,
    t: float,
) -> BoundReport:
    """Certify ||T_a(t) - T_b(t)||_inf <= 2 t sum C~_{w,v} Vol(U_v); the
    constants come first (a zero base rate raises BadKernel at once).
    Both semigroups come from ``_BallEvolver.matrix``, with no generator;
    t must be a finite time >= 0.  Gated as ``truncation_bound`` is."""
    check_time(t)
    _check_labels(disc.assignment, spec_a, spec_b)
    if spec_a.alpha != spec_b.alpha:
        raise ValueError("kernel specs must share alpha")
    alpha, labels = spec_a.alpha, spec_a.labels
    vol_disc = float(disc.p) ** -disc.assignment.m
    constants_sum, csum = _mean_value_constants(alpha, (
        ((w, v), float(spec_a.base[i, j]), float(spec_b.base[i, j]))
        for i, w in enumerate(labels) for j, v in enumerate(labels) if i != j
    ), vol_disc)

    Ta = _BallEvolver(spec_a, disc).matrix(t)
    Tb = _BallEvolver(spec_b, disc).matrix(t)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: refused by _gated
        Ta -= Tb
        measured = float(np.max(np.abs(Ta, out=Ta).sum(axis=1)))
    bound = 2.0 * t * csum
    report = BoundReport(
        measured_sup_error=measured,
        theoretical_bound=bound,
        tight_bound=bound,
        constants_sum=constants_sum,
        volumes={"vol_disc": vol_disc},
        slack=bound - measured,
    )
    return _gated(report, "swap", f"measured {measured:.17g} > bound {bound:.17g}")


def convergence_study(
    spec: KernelSpec,
    assign: DiscAssignment,
    u0: np.ndarray,
    n_range,
    tau: float,
    measure: str = "haar",
) -> list[tuple[int, float]]:
    """Sup-over-time gap between coarse evolutions and the reference.

    u0 lives on a fine reference level (inferred from its length); for
    every n it is sampled at the first reference cell of each level-n cell,
    evolved at level n over the whole t-grid, extended back constant per
    cell, and compared against the reference evolution.  Every
    level evolves through ``_BallEvolver`` (no N x N array), and the
    reference level reuses the reference evolver.  tau must be a finite
    time >= 0 (NegativeTime, raised before any domain).
    """
    check_time(tau, "tau")
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
    ev_ref = _BallEvolver(spec, disc_ref, measure)
    grid = t_grid(tau)
    refs = ev_ref.over_grid(u0, grid)

    rows: list[tuple[int, float]] = []
    for n in levels:
        if n == n_ref:
            disc_n, ev_n = disc_ref, ev_ref
        else:
            disc_n = discretize(assign, n)
            ev_n = _BallEvolver(spec, disc_n, measure)
        step = assign.p ** (n_ref - n)  # level-n cell i is cells i * step .. (i + 1) * step - 1
        un0 = u0[np.arange(len(disc_n)) * step]
        lifted = ev_n.over_grid(un0, grid)[np.arange(len(disc_ref)) // step]
        with np.errstate(invalid="ignore"):  # inf - inf: the caller refuses a NaN gap
            rows.append((n, float(np.max(np.abs(lifted - refs)))))
    return rows
