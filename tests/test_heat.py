"""Semigroups, heat kernels, Cauchy solutions, certified bounds.

Two independent routes back each other: matrix exponentials against
spectral sums, closed 2x2 forms against the generic path, and explicit
tail summation against projection errors.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultraheat import (
    Bullet,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    convergence_study,
    disc_semigroup,
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
    truncated_domain,
    truncation_bound,
)
from ultraheat.errors import NegativeTime
from ultraheat.heat import _BallEvolver, _mean_value_constants, heat_table, t_grid
from ultraheat.operators import GeneratorMatrix, _prefix_table, cut_nodes

from conftest import (
    dense_table,
    domain_cells,
    random_connected_weights,
    random_dendrogram,
    random_metric,
    specs_from_weights,
)


def three_leaf_setup(alpha=1.0):
    la, lb, lc = (DendrogramNode.leaf(x) for x in "abc")
    inner = DendrogramNode(1.0, (la, lb))
    root = DendrogramNode(2.0, (inner, lc))
    dend = Dendrogram(root)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values)
    return dend, assign, spec


def two_state_generator(rate=1.5, vol=0.5):
    matrix = np.array([[-rate * vol, rate * vol], [rate * vol, -rate * vol]])
    return GeneratorMatrix(matrix, np.array([vol, vol]))


def test_semigroup_identity_at_zero():
    gen = two_state_generator()
    T = semigroup(gen, 0.0)
    assert np.allclose(T, np.eye(2), atol=1e-14)


def test_semigroup_two_state_closed_form():
    rate, vol = 1.5, 0.5
    gen = two_state_generator(rate, vol)
    for t in (0.1, 1.0, 3.0):
        T = semigroup(gen, t)
        off = (1.0 - np.exp(-2 * rate * vol * t)) / 2.0
        assert T[0, 1] == pytest.approx(off, abs=1e-12)
        assert T[1, 0] == pytest.approx(off, abs=1e-12)


def test_semigroup_negative_time():
    with pytest.raises(NegativeTime):
        semigroup(two_state_generator(), -0.1)


def test_semigroup_law_and_stochasticity():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    gen = generator(spec, disc, "haar")
    for s, t in ((0.1, 0.4), (0.5, 0.5), (1.0, 2.0)):
        Ts, Tt, Tst = (semigroup(gen, x) for x in (s, t, s + t))
        assert np.max(np.abs(Ts @ Tt - Tst)) < 1e-9
    for t in (0.01, 0.1, 1.0, 10.0):
        T = semigroup(gen, t)
        assert np.max(np.abs(T.sum(axis=1) - 1.0)) < 1e-10
        assert T.min() > -1e-12
        u = np.linspace(-1, 1, len(disc))
        assert np.max(np.abs(T @ u)) <= np.max(np.abs(u)) + 1e-10


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
    disc = discretize(assign, assign.m + 1)
    for spec in specs:
        for measure in ("haar", "nu"):
            gen = generator(spec, disc, measure)
            for t in (0.1, 1.0):
                T = semigroup(gen, t)
                table = heat_kernel(spec, disc, t, measure)
                transition = table * gen.measure[None, :]
                assert np.max(np.abs(transition - T)) < 1e-9
                # detailed balance of the transition matrix
                weighted = gen.measure[:, None] * T
                assert np.max(np.abs(weighted - weighted.T)) < 1e-12


def test_heat_kernel_t0_is_reproducing_kernel():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    table = heat_kernel(spec, disc, 0.0)
    gen = generator(spec, disc, "haar")
    assert np.allclose(table * gen.measure[None, :], np.eye(len(disc)), atol=1e-10)


def test_heat_kernel_long_time_reaches_stationarity():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    basis = full_basis(spec, disc, "nu")
    lams = sorted(basis.eigenvalues())
    gap = -max(l for l in lams if l < -1e-12)
    t = 40.0 / gap
    table = heat_kernel(spec, disc, t, "nu")
    # stationary density of the nu-generator is constant 1
    assert np.max(np.abs(table - 1.0)) < 1e-8


def test_solve_cauchy_examples():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    nc = len(disc)
    basis = full_basis(spec, disc, "haar")
    gen = generator(spec, disc, "haar")
    const = np.full(nc, 2.5)
    for t in (0.0, 1.0, 7.0):
        assert np.allclose(solve_cauchy(spec, disc, const, t), const, atol=1e-10)
    psi = basis.psi[:, 0].real
    evolved = solve_cauchy(spec, disc, psi, 1.2)
    direct = np.exp(1.2 * basis.records[0].lam) * psi
    assert np.allclose(evolved, direct, atol=1e-10)
    rng = np.random.default_rng(3)
    u0 = rng.uniform(-1, 1, nc)
    previous = np.inf
    for t in t_grid(5.0, points=16):
        out = solve_cauchy(spec, disc, u0, t)
        current = float(np.max(np.abs(out)))
        assert current <= previous + 1e-10
        previous = current
        assert np.allclose(out, semigroup(gen, t) @ u0, atol=1e-9)


def test_truncation_bound_three_leaf():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.uniform(-1, 1, len(disc))
        report = truncation_bound(spec, disc, 1, 1.0, u)
        assert report.slack >= 0.0  # T(0) u is u itself, so no rounding residue at t = 0
        assert report.measured_sup_error <= report.theoretical_bound + 1e-9


def test_truncation_bound_no_op_at_max_level():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    u = np.linspace(-1, 1, len(disc))
    report = truncation_bound(spec, disc, dend.max_level, 1.0, u)
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
        u = rng.uniform(-1, 1, len(disc))
        bounds = []
        for ell in range(1, dend.max_level + 1):
            report = truncation_bound(spec, disc, ell, 1.0, u)
            assert report.slack >= 0.0
            bounds.append(report.theoretical_bound)
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_swap_bound_self_comparison_is_zero():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    report = kernel_swap_bound(spec, spec, disc, 1.0)
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
    report = kernel_swap_bound(spec_a, spec_b, disc, 1.0)
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
            report = kernel_swap_bound(de_spec, delta_spec, disc, t)
            assert report.slack >= -1e-9


def test_bounds_constants_sum_runs_left_to_right():
    """1 + 1e-16 + 1e-16 is 1.0 summed left to right, but 1 + 2^-52 under
    math.fsum (and the builtin sum of Python >= 3.12).  At alpha = 1 the
    pairs' constants are |a - b| / min(a, b)^2: 1.0, 1e-16 and 1e-16."""
    pairs = [(("a", "b"), 1.0, 2.0), (("a", "c"), 1e8, 1e8 + 1), (("b", "c"), 1e8, 1e8 + 1)]
    constants_sum, csum = _mean_value_constants(1.0, pairs, 1.0)
    assert constants_sum == csum == 1.0 != math.fsum([1.0, 1e-16, 1e-16])
    empty = _mean_value_constants(1.0, [], 0.5)
    assert empty == (0, 0.0) and type(empty[0]) is int


def test_mean_value_constant_of_an_overflowing_power_is_zero():
    """min(a, b)^(alpha + 1) = 2^2001 is beyond the float range, where
    Python's float power raises OverflowError: the power is inf and the
    constant 0.0."""
    assert _mean_value_constants(2000.0, [(("a", "b"), 2.0, 3.0)], 1.0) == (0.0, 0.0)


def test_convergence_exact_once_u0_locally_constant():
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    ref_level = n0 + 3
    disc_n0 = discretize(assign, n0)
    disc_ref = discretize(assign, ref_level)
    rng = np.random.default_rng(13)
    coarse = rng.uniform(-1, 1, len(disc_n0))
    u0 = loop_embed(disc_n0, disc_ref, coarse)
    rows = convergence_study(spec, assign, u0, range(n0, ref_level + 1), 1.0)
    for n, gap in rows:
        assert gap < 1e-10


def test_convergence_single_fine_component_resolved_at_its_level():
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    ref_level = n0 + 3
    disc_ref = discretize(assign, ref_level)
    basis_ref = full_basis(spec, disc_ref, "haar")
    fine_level = n0 + 2
    target = next(
        basis_ref.psi[:, k].real
        for k, r in enumerate(basis_ref.records)
        if r.kind == "kozyrev" and len(r.support.split(":")[1]) == fine_level - 1
    )
    u0 = target / np.max(np.abs(target))
    rows = dict(convergence_study(spec, assign, u0, range(n0, ref_level + 1), 0.5))
    assert rows[fine_level] < 1e-10
    assert rows[ref_level] < 1e-10
    assert rows[n0] > 1e-3  # unresolved below the support level


def test_convergence_gap_nonincreasing_for_decaying_profiles():
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    ref_level = n0 + 3
    disc_ref = discretize(assign, ref_level)
    basis_ref = full_basis(spec, disc_ref, "haar")
    rng = np.random.default_rng(17)
    u0 = np.zeros(len(disc_ref))
    for r, psi in zip(basis_ref.records, basis_ref.psi.T):
        if r.kind == "block":
            u0 = u0 + rng.uniform(-1, 1) * psi.real
        else:
            d = len(r.support.split(":")[1])
            u0 = u0 + rng.uniform(-1, 1) * 4.0 ** -(d + 1) * psi.real
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
    basis = full_basis(spec, disc_ref, "haar")
    rng = np.random.default_rng(19)
    psi = basis.psi
    coeffs = psi.conj().T @ (basis.measure * rng.uniform(-1, 1, len(disc_ref)))

    def level_of(record):
        if record.kind != "kozyrev":
            return 0
        return len(record.support.split(":")[1]) + 1

    keep = np.array([level_of(r) <= n for r in basis.records])
    truncated = (psi[:, keep] @ coeffs[keep]).real
    full = (psi @ coeffs).real
    tail = (psi[:, ~keep] @ coeffs[~keep]).real
    measured = np.max(np.abs(truncated - full))
    assert measured == pytest.approx(np.max(np.abs(tail)), abs=1e-12)


def test_evolver_matches_expm_fallback():
    import scipy.linalg

    gen = two_state_generator(2.0, 0.25)
    for t in (0.0, 0.3, 2.0):
        eig_route = semigroup(gen, t)
        pade_route = scipy.linalg.expm(t * gen.matrix)
        assert np.max(np.abs(eig_route - pade_route)) < 1e-12


def test_semigroup_falls_back_only_for_non_self_adjoint_generators():
    """A generator that is not self-adjoint under its measure has no
    fallback: it raises NotSelfAdjoint (exit 22)."""
    from ultraheat.errors import NotSelfAdjoint

    def gen(matrix, measure):
        return GeneratorMatrix(np.array(matrix), np.array(measure))

    skew = gen([[-1.0, 1.0], [2.0, -2.0]], [0.5, 0.5])  # not symmetric under its measure
    with pytest.raises(NotSelfAdjoint):
        semigroup(skew, 0.7)
    with pytest.raises(ValueError, match="masses must be positive"):
        semigroup(gen([[-1.0, 1.0], [1.0, -1.0]], [0.5, 0.0]), 0.7)


def test_scipy_is_imported_only_by_the_expm_fallback(tmp_path):
    """No module of the package imports scipy, and no `ultraheat` command
    loads it: scipy is a test dependency only (the tests' expm oracle)."""
    import ast
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ultraheat

    for path in Path(ultraheat.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name

    script = """
import json, sys
from ultraheat.cli import main
graph = {"vertices": ["a", "b", "c"], "d": {"a": [1, 2], "b": [0, 1], "c": [0, 0]},
         "edges": [{"ends": ["a", "b"], "w": 6}, {"ends": ["b", "c"], "w": 3}]}
json.dump(graph, open("graph.json", "w"))
runs = [["index", "--input", "graph.json", "--output", "index.json"]]
common = ["--input", "index.json", "--output", "out", "--level", "3"]
runs += [["spectrum", *common, "--bullet", "ultrametric", "--measure", "nu"],
         ["heat", *common, "--bullet", "graphdist", "--t", "0.5"],
         ["bounds", *common, "--truncate", "1"],
         ["bounds", *common, "--swap", "graphdist,ultrametric"]]
for argv in runs:
    assert main(argv) == 0, argv
assert main(["converge", "--input", "index.json", "--output", "out", "--bullet", "ultrametric",
             "--levels", "3,4", "--reference", "4"]) == 0
assert "scipy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env, cwd=tmp_path,
                   stdout=subprocess.DEVNULL)


# --- index maps, one coefficient per grid, shared eigensolves and cut kernels ---


def loop_project(disc_fine, disc_coarse, u):
    """Per-cell lookup of every coarse cell's zero-padded representative."""
    from ultraheat.padic import PAdicCell

    pad = (0,) * (disc_fine.level - disc_coarse.level)
    return np.array([u[disc_fine.index_of(PAdicCell(c.p, c.digits + pad))]
                     for c in domain_cells(disc_coarse)[0]])


def loop_embed(disc_coarse, disc_fine, u):
    """Per-cell lookup of the coarse cell containing every fine cell."""
    from ultraheat.padic import PAdicCell

    return np.array([
        u[disc_coarse.index_of(PAdicCell(c.p, c.digits[: disc_coarse.level]))]
        for c in domain_cells(disc_fine)[0]
    ])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_index_maps_match_the_per_cell_lookups(p):
    """The index maps of ``convergence_study``: with step = p^gap, coarse
    cell i's zero-padded representative is fine cell i * step and fine cell
    i lies in coarse cell i // step, because ``discretize`` lays the cells
    of each coarse cell out contiguously in digit order."""
    rng = np.random.default_rng(29 + p)
    dend = random_dendrogram(rng, 4, max_children=2)
    assign = embed(dend, p)
    coarse = discretize(assign, assign.m + 1)
    for gap in (0, 1, 2, 3):
        fine = discretize(assign, assign.m + 1 + gap)
        project, lift = np.arange(len(coarse)) * p**gap, np.arange(len(fine)) // p**gap
        u_fine = rng.uniform(-1, 1, len(fine))
        u_coarse = rng.uniform(-1, 1, len(coarse))
        assert np.array_equal(u_fine[project], loop_project(fine, coarse, u_fine))
        assert np.array_equal(u_coarse[lift], loop_embed(coarse, fine, u_coarse))
        # a trailing axis (one column per time) is carried along
        grid = rng.uniform(-1, 1, (len(coarse), 4))
        assert np.array_equal(grid[lift],
                              np.stack([loop_embed(coarse, fine, g) for g in grid.T], axis=1))


def loop_convergence(spec, assign, u0, levels, tau, measure):
    """The convergence study one time and one cell at a time, with a fresh
    evolver per level, each applied at a single time."""
    n_ref = assign.m + round(np.log(len(u0) // len(assign.labels)) / np.log(assign.p))
    disc_ref = discretize(assign, n_ref)
    ev_ref = _BallEvolver(spec, disc_ref, measure)
    rows = []
    for n in levels:
        disc_n = discretize(assign, n)
        ev_n = _BallEvolver(spec, disc_n, measure)
        un0 = loop_project(disc_ref, disc_n, u0)
        gap = 0.0
        for t in t_grid(tau):
            lifted = loop_embed(disc_n, disc_ref, ev_n.over_grid(un0, [t])[:, 0])
            gap = max(gap, float(np.max(np.abs(lifted - ev_ref.over_grid(u0, [t])[:, 0]))))
        rows.append((n, gap))
    return rows


@pytest.mark.parametrize("measure", ["haar", "nu"])
def test_convergence_study_equals_the_per_time_per_cell_loop(measure):
    rng = np.random.default_rng(31)
    dend = random_dendrogram(rng, 5, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.2, delta.labels, delta.values)
    n0 = assign.m + 1
    u0 = rng.uniform(-1, 1, len(discretize(assign, n0 + 2)))
    levels = [n0, n0 + 1, n0 + 2]
    rows = convergence_study(spec, assign, u0, levels, 0.7, measure)
    assert rows == loop_convergence(spec, assign, u0, levels, 0.7, measure)


def test_convergence_study_reuses_the_reference_eigensolve(monkeypatch):
    from ultraheat import spectra

    solves = []
    original = spectra.weighted_symmetric_eig
    monkeypatch.setattr(spectra, "weighted_symmetric_eig",
                        lambda *args: solves.append(len(args[1])) or original(*args))
    dend, assign, spec = three_leaf_setup()
    n0 = assign.m + 1
    u0 = np.random.default_rng(37).uniform(-1, 1, len(discretize(assign, n0 + 2)))
    rows = convergence_study(spec, assign, u0, [n0, n0 + 1, n0 + 2], 1.0)
    assert rows[-1] == (n0 + 2, 0.0)
    assert len(solves) == 3  # reference, n0, n0 + 1; the reference level reuses the first
    solves.clear()
    convergence_study(spec, assign, u0, [n0, n0 + 1], 1.0)
    assert len(solves) == 3


def test_evolver_grid_columns_equal_single_applications():
    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 2)
    gen = generator(spec, disc, "haar")
    ev = _BallEvolver(spec, disc)
    u = np.random.default_rng(41).uniform(-1, 1, gen.n_cells)
    grid = t_grid(2.0)
    columns = ev.over_grid(u, grid)
    assert columns.shape == (gen.n_cells, len(grid))
    for k, t in enumerate(grid):
        single = ev.over_grid(u, [t])[:, 0]
        assert np.array_equal(columns[:, k], single)
        assert np.allclose(single, semigroup(gen, t) @ u, atol=1e-12)


def test_evolver_at_time_zero_returns_u_itself():
    dend, assign, spec = three_leaf_setup()
    rng = np.random.default_rng(47)
    for dom in (discretize(assign, assign.m + 2), truncated_domain(assign, 1, assign.m + 2)[0]):
        u = rng.uniform(-1, 1, len(dom))
        ev = _BallEvolver(spec, dom)
        assert np.array_equal(ev.over_grid(u, np.array([0.0]))[:, 0], u)
        assert np.array_equal(ev.over_grid(u, t_grid(1.0))[:, 0], u)


@pytest.mark.parametrize("t_max", [1e-320, 5e-324, 4e-320])
def test_t_grid_of_a_subnormal_time(t_max):
    grid = t_grid(t_max)
    assert grid[0] == 0.0 and grid[-1] == t_max
    assert np.all(np.diff(grid) > 0)


def test_t_grid_is_unchanged_where_it_already_worked():
    for t_max in (1.0, 0.5, 1e-300, 2.0 ** -1060, 1e3):
        interior = np.geomspace(t_max * 1e-4, t_max, 64)
        assert np.array_equal(t_grid(t_max), np.unique(np.concatenate([[0.0, t_max], interior])))


@pytest.mark.parametrize("measure", ["haar", "nu"])
@pytest.mark.parametrize("seed, leaves", [(3, 8), (0, 20)])
def test_evolver_level_eigenvalues_equal_full_basis_bit_for_bit(measure, seed, leaves):
    rng = np.random.default_rng(seed)
    dend = random_dendrogram(rng, leaves, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    base = delta.values + np.where(~np.eye(leaves, dtype=bool), 0.3, 0.0)
    disc = discretize(assign, assign.m + 2)
    for spec in (KernelSpec(Bullet.ULTRAMETRIC, 1.5, delta.labels, delta.values),
                 KernelSpec(Bullet.GRAPH_DISTANCE, 1.2, delta.labels, base)):
        basis = full_basis(spec, disc, measure)
        by_level = {}
        for r in basis.records:
            if r.kind == "kozyrev":
                label, digits = r.support.split(":")
                by_level.setdefault((label, len(digits)), set()).add(r.lam)
        [(d0, members, _, lam)] = _BallEvolver(spec, disc, measure).groups
        assert d0 == assign.m and members.tolist() == list(range(len(assign.labels)))
        for k, label in enumerate(assign.labels):
            for d in range(assign.m, disc.level):
                assert by_level[(label, d)] == {lam[k, d - assign.m]}
        if not (measure == "nu" and spec.bullet is Bullet.ULTRAMETRIC):
            blocks = [r.lam for r in basis.records if r.kind == "block"]
            assert blocks == _BallEvolver(spec, disc, measure).evals.tolist()


# --- the pure-ball evolver against the dense semigroup --------------------------------

MAX_ORACLE_CELLS = 1500


@settings(max_examples=12, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    alpha=st.sampled_from([1.0, 1.3, 2.0]),
    bullet=st.sampled_from([Bullet.ULTRAMETRIC, Bullet.GRAPH_DISTANCE]),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(2, 6),
)
def test_ball_evolver_matches_the_dense_semigroup(p, alpha, bullet, seed, leaves):
    """On discretisations at m+1..m+3 under Haar and nu, and on every
    truncated domain of at most MAX_ORACLE_CELLS cells, T(t) u from the pure
    balls matches the dense semigroup's T(t) u at every time of the grid."""
    rng = np.random.default_rng(seed)
    dend = random_dendrogram(rng, leaves, max_children=p)
    assign = embed(dend, p)
    base = dend.delta_matrix() if bullet is Bullet.ULTRAMETRIC else random_metric(rng, leaves)
    spec = KernelSpec(bullet, alpha, base.labels, base.values)
    inputs = []
    for n in range(assign.m + 1, assign.m + 4):
        disc = discretize(assign, n)
        inputs += [(disc, "haar"), (disc, "nu")]
        for ell in range(1, dend.max_level + 1):
            balls = [assign.cell_of(node) for node in cut_nodes(assign, ell)]
            if sum(p ** (n - ball.level) for ball in balls) <= MAX_ORACLE_CELLS:
                inputs.append((truncated_domain(assign, ell, n)[0], "haar"))
    for dom, measure in inputs:
        gen = generator(spec, dom, measure)
        u = rng.uniform(-1, 1, len(dom))
        grid = t_grid(float(rng.uniform(0.1, 2.0)), points=4)
        columns = _BallEvolver(spec, dom, measure).over_grid(u, grid)
        # the dense eigh oracle's own error grows as eps * ||A||_inf * t
        norm = float(np.max(np.abs(gen.matrix).sum(axis=1)))
        sup_u = max(1.0, float(np.max(np.abs(u))))
        for k, t in enumerate(grid):
            tol = max(1e-12, 4 * np.finfo(float).eps * norm * t) * sup_u
            assert np.max(np.abs(columns[:, k] - semigroup(gen, t) @ u)) <= tol


@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    alpha=st.floats(1.0, 2.0),
    t=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(2, 6),
)
@example(p=5, alpha=2.0, t=6.0, seed=121, leaves=5)
def test_closed_form_kernel_and_swap_match_the_dense_semigroup(p, alpha, t, seed, leaves):
    """At levels m+1 and m+2 under Haar and nu, the closed-form heat kernel
    times the measure is the dense semigroup entrywise, within the oracle
    tolerance max(1e-12, 4 eps ||A||_inf t), and T(0) is exactly I.  The
    swap bound's measured error is the largest row sum of |T_a - T_b| of
    the two closed-form semigroups: a sum of N entries, each within that
    tolerance of the dense one, so it is compared with the closed forms
    it is made of, not with the dense row sum."""
    rng = np.random.default_rng(seed)
    dend = random_dendrogram(rng, leaves, max_children=p)
    assign = embed(dend, p)
    delta, metric = dend.delta_matrix(), random_metric(rng, leaves)
    specs = (KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values),
             KernelSpec(Bullet.GRAPH_DISTANCE, alpha, metric.labels, metric.values))

    def tolerance(gen):
        norm = float(np.max(np.abs(gen.matrix).sum(axis=1)))
        return max(1e-12, 4 * np.finfo(float).eps * norm * t)

    for n in (assign.m + 1, assign.m + 2):
        disc = discretize(assign, n)
        if len(disc) > MAX_ORACLE_CELLS:
            break
        for measure in ("haar", "nu"):
            for spec in specs:
                gen = generator(spec, disc, measure)
                table = heat_kernel(spec, disc, t, measure)
                gap = np.max(np.abs(table * gen.measure[None, :] - semigroup(gen, t)))
                assert gap <= tolerance(gen)
                identity = _BallEvolver(spec, disc, measure).matrix(0.0)
                assert np.array_equal(identity, np.eye(len(disc)))
        Ta, Tb = (_BallEvolver(spec, disc).matrix(t) for spec in specs)
        measured = kernel_swap_bound(*specs, disc, t).measured_sup_error
        assert measured == float(np.max(np.abs(Ta - Tb).sum(axis=1)))


def _oracle_tolerance(gen, t):
    """max(1e-12, 4 eps ||A||_inf t): the dense eigh oracle's own error."""
    norm = float(np.max(np.abs(gen.matrix).sum(axis=1)))
    return max(1e-12, 4 * np.finfo(float).eps * norm * t)


def _disc_cases(p, alpha, seed, leaves):
    """The three bullets' specs of a random graph on a random dendrogram's
    labels, embedded at p, and its discretisations at levels m+1 and m+2
    of at most MAX_ORACLE_CELLS cells."""
    rng = np.random.default_rng(seed)
    dend = random_dendrogram(rng, leaves, max_children=p)
    assign = embed(dend, p)
    specs = specs_from_weights(rng, dend.labels, random_connected_weights(rng, dend.labels), alpha)
    discs = [discretize(assign, n) for n in (assign.m + 1, assign.m + 2)]
    return rng, specs, [disc for disc in discs if len(disc) <= MAX_ORACLE_CELLS]


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    alpha=st.floats(1.0, 2.0),
    t=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(2, 6),
)
def test_disc_semigroup_matches_the_dense_semigroup(p, alpha, t, seed, leaves):
    """For every bullet and both measures, exp(tA) through the disc blocks
    is the dense semigroup entrywise within the oracle tolerance, and so is
    its lumping bound: the library's generators are lumpable over the
    discs, so S - S^ is rounding alone."""
    _, specs, discs = _disc_cases(p, alpha, seed, leaves)
    for disc in discs:
        for measure in ("haar", "nu"):
            for spec in specs:
                gen = generator(spec, disc, measure)
                T, bound = disc_semigroup(gen, disc, t)
                tol = _oracle_tolerance(gen, t)
                assert np.max(np.abs(T - semigroup(gen, t))) <= tol
                assert 0.0 <= bound <= tol


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    alpha=st.floats(1.0, 2.0),
    t=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(2, 6),
    size=st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]),
    cross=st.booleans(),
    zero_rows=st.booleans(),
    measure=st.sampled_from(["haar", "nu"]),
)
@example(p=3, alpha=1.3, t=0.5, seed=7, leaves=4, size=1e-6, cross=True, zero_rows=True,
         measure="nu")
@example(p=3, alpha=1.3, t=0.5, seed=7, leaves=4, size=1e-6, cross=False, zero_rows=False,
         measure="nu")
@example(p=2, alpha=2.0, t=2.0, seed=2, leaves=5, size=0.5, cross=False, zero_rows=False,
         measure="nu")
def test_disc_semigroup_bound_covers_a_generator_that_is_not_lumpable(
        p, alpha, t, seed, leaves, size, cross, zero_rows, measure):
    """One off-diagonal rate of an assembled generator changed by a
    relative `size`, inside a disc or across two, with its mirror entry
    mu_i A_ij / mu_j (still self-adjoint) and, when `zero_rows`, the two
    diagonal entries following (still a generator): the disc-block route
    then differs from the dense semigroup of the changed matrix by no more
    than its reported bound, within the oracle tolerance scaled by the
    largest entry of the dense semigroup when that exceeds 1."""
    rng, specs, discs = _disc_cases(p, alpha, seed, leaves)
    disc = discs[0]
    gen = generator(specs[int(rng.integers(len(specs)))], disc, measure)
    s = len(disc) // len(disc.balls)
    i = int(rng.integers(len(disc)))
    if cross:
        j = int(rng.choice(np.flatnonzero(np.arange(len(disc)) // s != i // s)))
    else:
        j = i // s * s + (i % s + 1 + int(rng.integers(s - 1))) % s
    A, mu = gen.matrix.copy(), gen.measure
    change = A[i, j] * size if A[i, j] else 1.0  # an adjacency non-edge gets a rate
    A[i, j] += change
    A[j, i] += change * mu[i] / mu[j]
    if zero_rows:
        A[i, i] -= change
        A[j, j] -= change * mu[i] / mu[j]
    changed = GeneratorMatrix(A, mu)
    T, bound = disc_semigroup(changed, disc, t)
    dense = semigroup(changed, t)
    # Without zero_rows the matrix is no generator, exp(tA) grows past 1 (to
    # 640 in the last example) and the dense oracle's rounding with it.
    tol = _oracle_tolerance(changed, t) * max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(T - dense)) <= bound + tol


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    alpha=st.floats(1.0, 2.0),
    t=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(1, 6),
    entries=st.sampled_from([1, 200, 1 << 14]),
)
@example(p=3, alpha=1.0, t=0.0, seed=0, leaves=1, entries=1)
@example(p=2, alpha=1.5, t=0.5, seed=1, leaves=1, entries=200)
def test_heat_table_is_the_two_dense_routes_by_row_blocks(p, alpha, t, seed, leaves, entries):
    """Whatever the size of the generator's row blocks (one disc each at
    ``entries`` = 1), `heat_table`'s block form is `heat_kernel` bit for
    bit: cross[a, b] on every entry between discs a != b and, on disc a,
    the level value levels[a, j - m] of the two cells' common-prefix
    length j (``_prefix_table``), one disc (K = 1) and t = 0 included.
    Its certificates are those of the stacked routes: the gap against
    `disc_semigroup` plus its bound and the row-sum defect within the
    oracle tolerance, and gap_scale is max(1e-12, 4 eps ||A||_inf t)."""
    from ultraheat import heat

    _, specs, discs = _disc_cases(p, alpha, seed, leaves)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heat, "BLOCK_ENTRIES", entries)
        for disc in discs:
            K, m, n = len(disc.balls), disc.assignment.m, disc.level
            for measure in ("haar", "nu"):
                for spec in specs:
                    (cross, levels), certificates = heat_table(spec, disc, t, measure)
                    assert cross.shape == (K, K) and levels.shape == (K, n - m + 1)
                    table = dense_table(cross, levels[:, _prefix_table(p, m, n) - m])
                    assert np.array_equal(table, heat_kernel(spec, disc, t, measure))
                    gen = generator(spec, disc, measure)
                    T, bound = disc_semigroup(gen, disc, t)
                    tol = _oracle_tolerance(gen, t)
                    gap = np.max(np.abs(table * gen.measure[None, :] - T)) + bound
                    assert certificates["two_route_gap"] == pytest.approx(gap, rel=0, abs=tol)
                    defect = np.max(np.abs(T.sum(axis=1) - 1.0))
                    assert certificates["row_sum_defect"] == pytest.approx(defect, rel=0, abs=tol)
                    assert certificates["gap_scale"] == pytest.approx(tol, rel=1e-12)


def test_disc_semigroup_refuses_a_truncated_domain():
    dend, assign, spec = three_leaf_setup()
    dom = truncated_domain(assign, 1, assign.m + 1)[0]
    with pytest.raises(ValueError, match="not a discretisation"):
        disc_semigroup(generator(spec, dom), dom, 0.5)


def three_spine_dendrogram(depth=7):
    """Three spines under the root, each internal node holding one leaf and
    the next node down to ``depth - 1``; one radius per depth, so m = depth
    and each root child's ball holds p^(m + 1 - 1) cells at level m + 1."""
    def leaf(label):
        return DendrogramNode.leaf(label)

    def spine(name, d):
        if d == depth - 1:
            kids = (leaf(f"{name}x"), leaf(f"{name}y"))
        else:
            kids = (leaf(f"{name}{d}"), spine(name, d + 1))
        return DendrogramNode(float(depth + 1 - d), kids)

    kids = tuple(spine(name, 1) for name in "abc")
    return Dendrogram(DendrogramNode(float(depth + 1), kids))


def test_certify_routines_build_no_generator_and_no_kernel_matrix(monkeypatch):
    """`truncation_bound`, `convergence_study` and `kernel_swap_bound` build
    no generator, no kernel matrix and no dense semigroup."""
    from ultraheat import heat, operators

    dend = three_spine_dendrogram()
    assign = embed(dend, 3)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
    other = KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, delta.labels,
                       delta.values + np.where(np.eye(len(delta.labels)) > 0, 0.0, 0.3))
    m = assign.m
    disc = discretize(assign, m + 1)
    assert len(truncated_domain(assign, 1, m + 1)[0]) >= 5000

    def unreachable(*args, **kwargs):
        raise AssertionError("a dense N x N operator was built")

    for name in ("generator", "kernel_matrix", "generator_rows", "kernel_rows"):
        monkeypatch.setattr(operators, name, unreachable)
    monkeypatch.setattr(heat, "generator_rows", unreachable)
    monkeypatch.setattr(heat, "semigroup", unreachable)
    rng = np.random.default_rng(43)
    report = truncation_bound(spec, disc, 1, 1.0, rng.uniform(-1, 1, len(disc)))
    assert report.slack >= -1e-9
    assert report.volumes["max_cut_rate"] > 0.0
    u0 = rng.uniform(-1, 1, len(discretize(assign, m + 3)))
    rows = convergence_study(spec, assign, u0, [m + 1, m + 2, m + 3], 1.0, "nu")
    assert rows[-1] == (m + 3, 0.0)
    report = kernel_swap_bound(spec, other, disc, 1.0)
    assert report.slack >= -1e-9 and report.measured_sup_error > 0.0


# --- times and gates ---------------------------------------------------------------


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_times_that_are_not_finite_and_non_negative_raise_before_any_domain(monkeypatch, t):
    from ultraheat import heat, spectra

    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    gen = generator(spec, disc, "haar")
    u = np.zeros(len(disc))

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the time was checked")

    for name in ("discretize", "truncated_domain", "weighted_symmetric_eig", "ball_spectrum"):
        monkeypatch.setattr(heat, name, unreachable)
    monkeypatch.setattr(spectra, "weighted_symmetric_eig", unreachable)
    calls = {
        "t_grid": lambda: t_grid(t),
        "semigroup": lambda: semigroup(gen, t),
        "disc_semigroup": lambda: disc_semigroup(gen, disc, t),
        "heat_kernel": lambda: heat_kernel(spec, disc, t),
        "solve_cauchy": lambda: solve_cauchy(spec, disc, u, t),
        "truncation_bound": lambda: truncation_bound(spec, disc, 1, t, u),
        "kernel_swap_bound": lambda: kernel_swap_bound(spec, spec, disc, t),
        "convergence_study": lambda: convergence_study(spec, assign, u, [assign.m + 1], t),
    }
    for name, call in calls.items():
        with pytest.raises(NegativeTime, match="not a finite time"):
            call()


def test_bound_gates_refuse_a_nan_error(monkeypatch):
    from ultraheat import heat
    from ultraheat.errors import CertificateFailed

    dend, assign, spec = three_leaf_setup()
    disc = discretize(assign, assign.m + 1)
    u = np.zeros(len(disc))
    u[0] = np.nan
    with pytest.raises(CertificateFailed, match="nan"):
        truncation_bound(spec, disc, 1, 1.0, u)
    monkeypatch.setattr(heat._BallEvolver, "matrix",
                        lambda evolver, t: np.full((len(disc),) * 2, np.nan))
    with pytest.raises(CertificateFailed, match="nan"):
        kernel_swap_bound(spec, spec, disc, 1.0)
