"""Semigroups, heat kernels, Cauchy solutions, certified bounds.

Two independent routes back each other: matrix exponentials against
spectral sums, closed 2x2 forms against the generic path, and explicit
tail summation against projection errors.
"""

import itertools

import numpy as np
import pytest

from ultraheat import (
    Bullet,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    convergence_study,
    discretize,
    embed,
    full_basis,
    generator,
    graph_distances,
    heat_kernel,
    kernel_swap_bound,
    semigroup,
    solve_cauchy,
    subdominant_ultrametric,
    tree_measure,
    truncation_bound,
)
from ultraheat.errors import NegativeTime
from ultraheat.heat import _Evolver, embed_piecewise, project_pointwise, t_grid
from ultraheat.operators import GeneratorMatrix

from conftest import random_connected_weights, random_dendrogram, specs_from_weights


def three_leaf_setup(alpha=1.0):
    la, lb, lc = (DendrogramNode(frozenset([x]), 0.0) for x in "abc")
    inner = DendrogramNode(frozenset(["a", "b"]), 1.0, (la, lb))
    root = DendrogramNode(frozenset(["a", "b", "c"]), 2.0, (inner, lc))
    dend = Dendrogram(root)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values)
    return dend, assign, spec


def two_state_generator(rate=1.5, vol=0.5):
    matrix = np.array([[-rate * vol, rate * vol], [rate * vol, -rate * vol]])
    from ultraheat.padic import PAdicCell

    cells = (PAdicCell(2, (0,)), PAdicCell(2, (1,)))
    return GeneratorMatrix(
        level=1,
        cells=cells,
        leaf_labels=("a", "b"),
        matrix=matrix,
        measure=np.array([vol, vol]),
        measure_kind="haar",
        bullet=Bullet.ULTRAMETRIC,
        alpha=1.0,
    )


def test_semigroup_identity_at_zero():
    gen = two_state_generator()
    T = semigroup(gen, 0.0)
    assert np.allclose(T.matrix, np.eye(2), atol=1e-14)


def test_semigroup_two_state_closed_form():
    rate, vol = 1.5, 0.5
    gen = two_state_generator(rate, vol)
    for t in (0.1, 1.0, 3.0):
        T = semigroup(gen, t)
        off = (1.0 - np.exp(-2 * rate * vol * t)) / 2.0
        assert T.matrix[0, 1] == pytest.approx(off, abs=1e-12)
        assert T.matrix[1, 0] == pytest.approx(off, abs=1e-12)


def test_semigroup_negative_time():
    with pytest.raises(NegativeTime):
        semigroup(two_state_generator(), -0.1)


def test_semigroup_law_and_stochasticity():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    gen = generator(spec, assign, disc, "haar")
    for s, t in ((0.1, 0.4), (0.5, 0.5), (1.0, 2.0)):
        Ts, Tt, Tst = (semigroup(gen, x).matrix for x in (s, t, s + t))
        assert np.max(np.abs(Ts @ Tt - Tst)) < 1e-9
    for t in (0.01, 0.1, 1.0, 10.0):
        T = semigroup(gen, t)
        assert T.row_sum_defect() < 1e-10
        assert T.min_entry() > -1e-12
        u = np.linspace(-1, 1, len(disc.cells))
        assert np.max(np.abs(T.apply(u))) <= np.max(np.abs(u)) + 1e-10


def test_two_route_agreement_all_combinations():
    rng = np.random.default_rng(109)
    labels = tuple(f"v{i:02d}" for i in range(4))
    weights = random_connected_weights(rng, labels)
    specs = specs_from_weights(rng, labels, weights, alpha=1.0)
    delta_spec = specs[2]
    dend = None
    from ultraheat import build_dendrogram, UltrametricMatrix

    dend = build_dendrogram(UltrametricMatrix(delta_spec.labels, delta_spec.base))
    assign = embed(dend)
    nu = tree_measure(dend)
    disc = discretize(assign, assign.m + 1)
    for spec in specs:
        for measure, tm in (("haar", None), ("nu", nu)):
            basis = full_basis(spec, assign, disc, measure, tm)
            gen = generator(spec, assign, disc, measure, tm)
            for t in (0.1, 1.0):
                T = semigroup(gen, t)
                table = heat_kernel(basis, t)
                transition = table.matrix * gen.measure[None, :]
                assert np.max(np.abs(transition - T.matrix)) < 1e-9
                # detailed balance of the transition matrix
                weighted = gen.measure[:, None] * T.matrix
                assert np.max(np.abs(weighted - weighted.T)) < 1e-12


def test_heat_kernel_t0_is_reproducing_kernel():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    basis = full_basis(spec, assign, disc, "haar")
    table = heat_kernel(basis, 0.0)
    gen = generator(spec, assign, disc, "haar")
    assert np.allclose(table.matrix * gen.measure[None, :], np.eye(len(disc.cells)), atol=1e-10)


def test_heat_kernel_long_time_reaches_stationarity():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    nu = tree_measure(dend)
    basis = full_basis(spec, assign, disc, "nu", nu)
    lams = sorted(basis.eigenvalues())
    gap = -max(l for l in lams if l < -1e-12)
    t = 40.0 / gap
    table = heat_kernel(basis, t)
    # stationary density of the nu-generator is constant 1
    assert np.max(np.abs(table.matrix - 1.0)) < 1e-8


def test_solve_cauchy_examples():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    nc = len(disc.cells)
    basis = full_basis(spec, assign, disc, "haar")
    gen = generator(spec, assign, disc, "haar")
    const = np.full(nc, 2.5)
    for t in (0.0, 1.0, 7.0):
        assert np.allclose(solve_cauchy(basis, const, t), const, atol=1e-10)
    pair = basis[0]
    evolved = solve_cauchy(basis, pair.psi.real, 1.2)
    direct = np.exp(1.2 * pair.lam) * pair.psi.real
    assert np.allclose(evolved, direct, atol=1e-10)
    rng = np.random.default_rng(3)
    u0 = rng.uniform(-1, 1, nc)
    previous = np.inf
    for t in t_grid(5.0, points=16):
        out = solve_cauchy(basis, u0, t)
        current = float(np.max(np.abs(out)))
        assert current <= previous + 1e-10
        previous = current
        assert np.allclose(out, semigroup(gen, t).matrix @ u0, atol=1e-9)


def test_truncation_bound_three_leaf():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.uniform(-1, 1, len(disc.cells))
        report = truncation_bound(spec, assign, disc, 1, 1.0, u)
        assert report.slack >= -1e-9
        assert report.measured_sup_error <= report.theoretical_bound + 1e-9


def test_truncation_bound_no_op_at_max_level():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    u = np.linspace(-1, 1, len(disc.cells))
    report = truncation_bound(spec, assign, disc, dend.max_level, 1.0, u)
    assert report.measured_sup_error < 1e-12
    assert report.theoretical_bound >= 0.0


def test_truncation_bound_nonincreasing_in_level():
    rng = np.random.default_rng(7)
    for _ in range(5):
        dend = random_dendrogram(rng, int(rng.integers(4, 9)), max_children=3)
        assign = embed(dend)
        delta = dend.delta_matrix()
        spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
        disc = discretize(assign, assign.m + 1)
        u = rng.uniform(-1, 1, len(disc.cells))
        bounds = []
        for ell in range(1, dend.max_level + 1):
            report = truncation_bound(spec, assign, disc, ell, 1.0, u)
            assert report.slack >= -1e-9
            bounds.append(report.theoretical_bound)
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_swap_bound_self_comparison_is_zero():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    report = kernel_swap_bound(spec, spec, assign, disc, 1.0)
    assert report.measured_sup_error < 1e-12
    assert report.theoretical_bound == 0.0


def test_swap_bound_zero_when_graph_metric_is_ultrametric():
    # complete graph with equal weights: d_E is already an ultrametric
    labels = tuple("abcd")
    weights = {frozenset(p): 1.0 for p in itertools.combinations(labels, 2)}
    d_e = graph_distances(labels, weights)
    delta = subdominant_ultrametric(d_e)
    assert np.array_equal(d_e.values, delta.values)
    dend = None
    from ultraheat import build_dendrogram

    dend = build_dendrogram(delta)
    assign = embed(dend)
    disc = discretize(assign, assign.m + 1)
    spec_a = KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, d_e.labels, d_e.values)
    spec_b = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
    report = kernel_swap_bound(spec_a, spec_b, assign, disc, 1.0)
    assert report.theoretical_bound == 0.0
    assert report.measured_sup_error < 1e-12


def test_swap_bound_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(3, 9))
        labels = tuple(f"v{i:02d}" for i in range(n))
        weights = random_connected_weights(rng, labels)
        kappa_spec, de_spec, delta_spec = specs_from_weights(rng, labels, weights)
        from ultraheat import build_dendrogram, UltrametricMatrix

        dend = build_dendrogram(UltrametricMatrix(delta_spec.labels, delta_spec.base))
        assign = embed(dend)
        disc = discretize(assign, assign.m + 1)
        for t in (0.1, 1.0, 5.0):
            report = kernel_swap_bound(de_spec, delta_spec, assign, disc, t)
            assert report.slack >= -1e-9


def test_convergence_exact_once_u0_locally_constant():
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    ref_level = n0 + 3
    disc_n0 = discretize(assign, n0)
    disc_ref = discretize(assign, ref_level)
    rng = np.random.default_rng(13)
    coarse = rng.uniform(-1, 1, len(disc_n0.cells))
    u0 = embed_piecewise(disc_n0, disc_ref, coarse)
    rows = convergence_study(spec, assign, u0, range(n0, ref_level + 1), 1.0)
    for n, gap in rows:
        assert gap < 1e-10


def test_convergence_single_fine_component_resolved_at_its_level():
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    ref_level = n0 + 3
    disc_ref = discretize(assign, ref_level)
    basis_ref = full_basis(spec, assign, disc_ref, "haar")
    fine_level = n0 + 2
    target = next(
        p
        for p in basis_ref
        if p.kind == "kozyrev" and len(p.support.split(":")[1]) == fine_level - 1
    )
    u0 = target.psi.real / np.max(np.abs(target.psi.real))
    rows = dict(convergence_study(spec, assign, u0, range(n0, ref_level + 1), 0.5))
    assert rows[fine_level] < 1e-10
    assert rows[ref_level] < 1e-10
    assert rows[n0] > 1e-3  # unresolved below the support level


def test_convergence_gap_nonincreasing_for_decaying_profiles():
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    ref_level = n0 + 3
    disc_ref = discretize(assign, ref_level)
    basis_ref = full_basis(spec, assign, disc_ref, "haar")
    rng = np.random.default_rng(17)
    u0 = np.zeros(len(disc_ref.cells))
    for p in basis_ref:
        if p.kind == "block":
            u0 = u0 + rng.uniform(-1, 1) * p.psi.real
        else:
            d = len(p.support.split(":")[1])
            u0 = u0 + rng.uniform(-1, 1) * 4.0 ** -(d + 1) * p.psi.real
    rows = convergence_study(spec, assign, u0, range(n0, ref_level + 1), 1.0)
    gaps = [g for _, g in rows]
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_convergence_study_rejects_lengths_off_the_level_grid(monkeypatch):
    """Only a u0 of |V| * p^k cells with k >= 1 names a reference level; any
    other length raises DimensionMismatch before any domain is built."""
    from ultraheat import heat
    from ultraheat.errors import DimensionMismatch

    dend, assign, spec = three_leaf_setup()
    n_v, p = len(assign.labels), assign.p

    def unreachable(*args):
        raise AssertionError("a domain was built for a u0 of the wrong length")

    with monkeypatch.context() as m:
        m.setattr(heat, "discretize", unreachable)
        for length in (0, 1, n_v, n_v * p - 1, n_v * p + 1, n_v * (p**2 + 1)):
            with pytest.raises(DimensionMismatch, match=f"length {length} "):
                convergence_study(spec, assign, np.zeros(length), [assign.m + 1], 1.0)
    rows = convergence_study(spec, assign, np.zeros(n_v * p**2), [assign.m + 1], 1.0)
    assert rows == [(assign.m + 1, 0.0)]

def test_projection_error_equals_discarded_tail_at_t0():
    # coefficient-truncation projection: dropping all components finer than
    # level n changes u0 by exactly the explicitly summed tail
    dend, assign, spec = three_leaf_setup()
    ref_level = assign.m + 3
    n = assign.m + 1
    disc_ref = discretize(assign, ref_level)
    basis = full_basis(spec, assign, disc_ref, "haar")
    rng = np.random.default_rng(19)
    psi = basis.psi_matrix()
    coeffs = psi.conj().T @ (basis.measure * rng.uniform(-1, 1, len(disc_ref.cells)))

    def level_of(pair):
        if pair.kind != "kozyrev":
            return 0
        return len(pair.support.split(":")[1]) + 1

    keep = np.array([level_of(p) <= n for p in basis])
    truncated = (psi[:, keep] @ coeffs[keep]).real
    full = (psi @ coeffs).real
    tail = (psi[:, ~keep] @ coeffs[~keep]).real
    measured = np.max(np.abs(truncated - full))
    assert measured == pytest.approx(np.max(np.abs(tail)), abs=1e-12)


def test_evolver_matches_expm_fallback():
    import scipy.linalg

    gen = two_state_generator(2.0, 0.25)
    for t in (0.0, 0.3, 2.0):
        eig_route = _Evolver(gen).matrix(t)
        pade_route = scipy.linalg.expm(t * gen.matrix)
        assert np.max(np.abs(eig_route - pade_route)) < 1e-12


def test_project_and_embed_roundtrip():
    dend, assign, spec = three_leaf_setup()
    coarse = discretize(assign, assign.m + 1)
    fine = discretize(assign, assign.m + 2)
    rng = np.random.default_rng(23)
    u = rng.uniform(-1, 1, len(coarse.cells))
    lifted = embed_piecewise(coarse, fine, u)
    back = project_pointwise(fine, coarse, lifted)
    assert np.array_equal(back, u)


def test_semigroup_falls_back_only_for_non_self_adjoint_generators():
    import scipy.linalg
    from ultraheat.padic import PAdicCell

    cells = (PAdicCell(2, (0,)), PAdicCell(2, (1,)))

    def gen(matrix, measure):
        return GeneratorMatrix(1, cells, ("a", "b"), np.array(matrix), np.array(measure),
                               "haar", Bullet.ULTRAMETRIC, 1.0)

    skew = gen([[-1.0, 1.0], [2.0, -2.0]], [0.5, 0.5])  # not symmetric under its measure
    T = semigroup(skew, 0.7)
    assert np.max(np.abs(T.matrix - scipy.linalg.expm(0.7 * skew.matrix))) < 1e-12
    with pytest.raises(ValueError, match="masses must be positive"):
        semigroup(gen([[-1.0, 1.0], [1.0, -1.0]], [0.5, 0.0]), 0.7)


def test_scipy_is_imported_only_by_the_expm_fallback():
    import os
    import subprocess
    import sys

    script = """
import sys
import numpy as np
import ultraheat.cli
from ultraheat import Bullet, semigroup
from ultraheat.operators import GeneratorMatrix
from ultraheat.padic import PAdicCell
assert "scipy" not in sys.modules
cells = (PAdicCell(2, (0,)), PAdicCell(2, (1,)))
skew = GeneratorMatrix(1, cells, ("a", "b"), np.array([[-1.0, 1.0], [2.0, -2.0]]),
                       np.array([0.5, 0.5]), "haar", Bullet.ULTRAMETRIC, 1.0)
semigroup(skew, 0.7)
assert "scipy.linalg" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


# --- index maps, one coefficient per grid, shared eigensolves and cut kernels ---


def loop_project(disc_fine, disc_coarse, u):
    """Per-cell lookup of every coarse cell's zero-padded representative."""
    return np.array([u[disc_fine.index_of(c.extended(disc_fine.level))] for c in disc_coarse.cells])


def loop_embed(disc_coarse, disc_fine, u):
    """Per-cell lookup of the coarse cell containing every fine cell."""
    from ultraheat.padic import PAdicCell

    return np.array([
        u[disc_coarse.index_of(PAdicCell(c.p, c.digits[: disc_coarse.level]))]
        for c in disc_fine.cells
    ])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_index_maps_match_the_per_cell_lookups(p):
    rng = np.random.default_rng(29 + p)
    dend = random_dendrogram(rng, 4, max_children=2)
    assign = embed(dend, p)
    coarse = discretize(assign, assign.m + 1)
    for gap in (0, 1, 2, 3):
        fine = discretize(assign, assign.m + 1 + gap)
        u_fine = rng.uniform(-1, 1, len(fine.cells))
        u_coarse = rng.uniform(-1, 1, len(coarse.cells))
        assert np.array_equal(project_pointwise(fine, coarse, u_fine),
                              loop_project(fine, coarse, u_fine))
        assert np.array_equal(embed_piecewise(coarse, fine, u_coarse),
                              loop_embed(coarse, fine, u_coarse))
        # a trailing axis (one column per time) is carried along
        grid = rng.uniform(-1, 1, (len(coarse.cells), 4))
        assert np.array_equal(embed_piecewise(coarse, fine, grid),
                              np.stack([loop_embed(coarse, fine, g) for g in grid.T], axis=1))


def test_index_maps_refuse_mismatched_discretisations():
    dend, assign, spec = three_leaf_setup()
    coarse = discretize(assign, assign.m + 1)
    fine = discretize(assign, assign.m + 2)
    other = discretize(embed(dend), assign.m + 2)
    u = np.zeros(len(fine.cells))
    with pytest.raises(ValueError, match="coarser"):
        embed_piecewise(fine, coarse, u)
    with pytest.raises(ValueError, match="different disc assignments"):
        project_pointwise(other, coarse, u)


def loop_convergence(spec, assign, u0, levels, tau, measure, tree_measure):
    """The convergence study one time and one cell at a time, with a fresh
    eigensolve per level."""
    from ultraheat.padic import PAdicCell

    def apply(ev, t, u):
        coeff = ev.Q.T @ (ev.d * u)
        return (ev.Q @ (np.exp(t * ev.evals) * coeff)) / ev.d

    n_ref = assign.m + round(np.log(len(u0) // len(assign.labels)) / np.log(assign.p))
    disc_ref = discretize(assign, n_ref)
    ev_ref = _Evolver(generator(spec, assign, disc_ref, measure, tree_measure))
    rows = []
    for n in levels:
        disc_n = discretize(assign, n)
        ev_n = _Evolver(generator(spec, assign, disc_n, measure, tree_measure))
        un0 = loop_project(disc_ref, disc_n, u0)
        gap = 0.0
        for t in t_grid(tau):
            lifted = loop_embed(disc_n, disc_ref, apply(ev_n, t, un0))
            gap = max(gap, float(np.max(np.abs(lifted - apply(ev_ref, t, u0)))))
        rows.append((n, gap))
    return rows


@pytest.mark.parametrize("measure", ["haar", "nu"])
def test_convergence_study_equals_the_per_time_per_cell_loop(measure):
    rng = np.random.default_rng(31)
    dend = random_dendrogram(rng, 5, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.2, delta.labels, delta.values)
    tm = tree_measure(dend) if measure == "nu" else None
    n0 = assign.m + 1
    u0 = rng.uniform(-1, 1, len(discretize(assign, n0 + 2).cells))
    levels = [n0, n0 + 1, n0 + 2]
    rows = convergence_study(spec, assign, u0, levels, 0.7, measure, tm)
    assert rows == loop_convergence(spec, assign, u0, levels, 0.7, measure, tm)


def test_convergence_study_reuses_the_reference_eigensolve(monkeypatch):
    from ultraheat import heat

    solves = []
    original = heat.weighted_symmetric_eig
    monkeypatch.setattr(heat, "weighted_symmetric_eig",
                        lambda *args: solves.append(len(args[1])) or original(*args))
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    u0 = np.random.default_rng(37).uniform(-1, 1, len(discretize(assign, n0 + 2).cells))
    rows = convergence_study(spec, assign, u0, [n0, n0 + 1, n0 + 2], 1.0)
    assert rows[-1] == (n0 + 2, 0.0)
    assert len(solves) == 3  # reference, n0, n0 + 1; the reference level reuses the first
    solves.clear()
    convergence_study(spec, assign, u0, [n0, n0 + 1], 1.0)
    assert len(solves) == 3


def test_evolver_grid_columns_equal_single_applications():
    dend, assign, spec = three_leaf_setup()
    gen = generator(spec, assign, discretize(assign, assign.m + 2), "haar")
    ev = _Evolver(gen)
    u = np.random.default_rng(41).uniform(-1, 1, gen.n_cells)
    grid = t_grid(2.0)
    columns = ev.over_grid(u, grid)
    assert columns.shape == (gen.n_cells, len(grid))
    for k, t in enumerate(grid):
        single = ev.over_grid(u, np.array([t]))[:, 0]
        assert np.array_equal(columns[:, k], single)
        assert np.allclose(single, semigroup(gen, t).matrix @ u, atol=1e-12)
