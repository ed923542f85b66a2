"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines.
Every tolerance is pinned here; oracle routes (dynamic programs,
quadrature, matrix application) are independent of the code paths they
certify.
"""

import itertools
import time

import numpy as np

from ultraheat import (
    Bullet,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    UltrametricMatrix,
    build_dendrogram,
    convergence_study,
    decode,
    discretize,
    embed,
    encode,
    full_basis,
    generator,
    graph_distances,
    heat_kernel,
    kernel_swap_bound,
    kozyrev_local_eigenvalue,
    parallel_toposort,
    semigroup,
    subdominant_ultrametric,
    tree_measure,
    truncation_bound,
    ultrametric_eigenvalue,
    ultrametric_wavelet,
    verify_eigenpair,
)
from conftest import (
    random_connected_weights,
    random_dag,
    random_dendrogram,
    random_family,
    random_metric,
    specs_from_weights,
)


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


# -------------------------------------------------------------------------------


def test_criterion_01_multitopo_roundtrip():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for _ in range(1000):
        fam = random_family(rng, max_vertices=50, max_topologies=5)
        back = decode(encode(fam), fam.primes)
        assert back.vertex_ids == fam.vertex_ids
        assert back.primes == fam.primes
        assert back.dags == fam.dags
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"roundtrip suite took {elapsed:.1f}s"
    report(1, f"1000 random families decode exactly in {elapsed:.1f}s (< 10s)")


def test_criterion_02_subdominant_ultrametric():
    rng = np.random.default_rng(1002)

    def minimax_dp(values):
        out = values.copy()
        for k in range(out.shape[0]):
            out = np.minimum(out, np.maximum.outer(out[:, k], out[k, :]))
        return out

    dominated_checked = 0
    for i in range(200):
        n = int(rng.integers(2, 9))
        d = random_metric(rng, n)
        delta = subdominant_ultrametric(d)
        assert np.array_equal(delta.values, minimax_dp(d.values))
        assert np.array_equal(delta.values, delta.values.T)
        assert np.all(np.diag(delta.values) == 0.0)
        assert delta.check_ultrametric(tol=0.0)
        assert np.all(delta.values <= d.values)
        if dominated_checked < 50 and n >= 3:
            other = random_dendrogram(rng, n).delta_matrix()
            mask = ~np.eye(n, dtype=bool)
            factor = float(np.min(d.values[mask] / other.values[mask]))
            dominated = other.values * factor * 0.999
            assert np.all(dominated <= d.values)
            assert np.all(dominated <= delta.values)
            dominated_checked += 1
    assert dominated_checked >= 50
    report(2, "200 metrics match the minimax oracle exactly; axioms and "
              f"maximality over {dominated_checked} dominated ultrametrics hold")


def test_criterion_03_parallel_toposort():
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    for i in range(500):
        n = int(rng.integers(10, 201))
        dag = random_dag(rng, n, density=float(rng.uniform(0.05, 0.3)))
        if i % 100 == 0:
            weights = {frozenset(e): float(rng.uniform(0.5, 3.0)) for e in dag.edges}
            if weights:
                try:
                    d_e = graph_distances(dag.vertices, weights)
                    dend = build_dendrogram(subdominant_ultrametric(d_e))
                except Exception:
                    dend = random_dendrogram(rng, n)
            else:
                dend = random_dendrogram(rng, n)
        else:
            dend = random_dendrogram(rng, n)
        seeds = list(rng.choice(dag.vertices, size=int(rng.integers(1, 7)), replace=False))
        orders = [
            parallel_toposort(dag, dend, seeds, parallelism=k) for k in (1, 4, 16)
        ]
        assert orders[0] == orders[1] == orders[2]
        pos = {v: i for i, v in enumerate(orders[0])}
        assert len(pos) == n
        assert all(pos[u] < pos[v] for u, v in dag.edges)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"toposort suite took {elapsed:.1f}s"
    report(3, f"500 DAGs sorted validly, identical at parallelism 1/4/16, "
              f"{elapsed:.1f}s (< 30s)")


def _chain_dendrogram(n_leaves: int) -> Dendrogram:
    """Nested binary merges: n-1 distinct radii."""
    nodes = [DendrogramNode.leaf(f"v{i}") for i in range(n_leaves)]
    radius = 1.0
    current = nodes[0]
    for nxt in nodes[1:]:
        current = DendrogramNode(radius, (current, nxt))
        radius *= 2.0
    return Dendrogram(current)


def test_criterion_04_kozyrev_spectrum():
    rng = np.random.default_rng(1004)
    worst = 0.0
    checked = 0
    for p in (2, 3, 5):
        for alpha in (1.0, 2.0):
            for n_leaves in (1, 2, 3, 4):
                dend = _chain_dendrogram(n_leaves)
                assign = embed(dend, p=p)
                assert assign.m == n_leaves - 1
                delta = dend.delta_matrix()
                specs = [KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values)]
                if n_leaves > 1:
                    kappa = np.where(
                        ~np.eye(n_leaves, dtype=bool),
                        rng.uniform(0.2, 1.0, (n_leaves, n_leaves)),
                        0.0,
                    )
                    kappa = (kappa + kappa.T) / 2.0
                    specs.append(KernelSpec(Bullet.ADJACENCY, alpha, delta.labels, kappa))
                disc = discretize(assign, assign.m + 2)
                for spec in specs:
                    gen = generator(spec, disc, "haar")
                    basis = full_basis(spec, disc, "haar")
                    for record in basis.records:
                        if record.kind != "kozyrev":
                            continue
                        assert record.residual <= 1e-9, (p, alpha, record.support,
                                                         record.residual)
                        assert record.lam <= 0.0
                        worst = max(worst, record.residual)
                        checked += 1
                # strict decrease of the local eigenvalue over d = m..m+5
                vals = [
                    kozyrev_local_eigenvalue(p, alpha, d, assign.m)
                    for d in range(assign.m, assign.m + 6)
                ]
                assert all(a > b for a, b in zip(vals, vals[1:]))
    report(4, f"{checked} closed-form Kozyrev eigenvalues certified "
              f"(worst residual {worst:.2e} <= 1e-9); spectra non-positive; "
              "local eigenvalue strictly decreasing in the ball depth")


def test_criterion_05_ultrametric_wavelet_spectrum():
    rng = np.random.default_rng(1005)
    worst = 0.0
    wavelets = 0
    for _ in range(100):
        dend = random_dendrogram(rng, int(rng.integers(2, 31)), max_children=4)
        assign = embed(dend)
        nu = tree_measure(dend)
        delta = dend.delta_matrix()
        spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
        disc = discretize(assign, assign.m + 1)
        gen = generator(spec, disc, "nu")
        for node in dend.internal_nodes():
            gamma = ultrametric_eigenvalue(nu, node, spec.alpha)
            for k in range(1, len(node.children)):
                psi = ultrametric_wavelet(disc, node, k)
                res = verify_eigenpair(gen, psi, gamma)
                assert res <= 1e-9, (node.members, k, res)
                worst = max(worst, res)
                wavelets += 1
    report(5, (
        f"{wavelets} wavelets over 100 dendrograms are eigenfunctions "
        f"(worst residual {worst:.2e} <= 1e-9).\n"
        "   Oracle-confirmed closed form:\n"
        "     gamma = -diam^(-alpha) * c(node) * nu(child)\n"
        "             - sum over proper ancestors a of radius(a)^(-alpha) * (nu(a) - nu(step_below_a)).\n"
        "   Factor finding: the sibling-exchange term carries c(node) * nu(child), i.e. the\n"
        "   remainder-mass form c(node) * nu(node minus child) overcounts by c(node)-1; the\n"
        "   ancestor escape sum is required for every non-root node."
    ))


def test_criterion_06_basis_completeness():
    rng = np.random.default_rng(1006)
    worst_gram = worst_proj = 0.0
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(2, 9)), max_children=3)
        assign = embed(dend)
        delta = dend.delta_matrix()
        spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
        disc = discretize(assign, assign.m + 1)
        for measure in ("haar", "nu"):
            basis = full_basis(spec, disc, measure)
            eye = np.eye(len(basis))
            g = float(np.max(np.abs(basis.gram() - eye)))
            pr = float(np.max(np.abs(basis.projector_sum() - eye)))
            assert g <= 1e-10 and pr <= 1e-10, (measure, g, pr)
            worst_gram, worst_proj = max(worst_gram, g), max(worst_proj, pr)
    report(6, f"Gram and projector-sum identities hold for both measures "
              f"(worst defects {worst_gram:.2e}, {worst_proj:.2e} <= 1e-10)")


def test_criterion_07_heat_two_routes():
    rng = np.random.default_rng(1007)
    worst_gap = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 6))
        labels = tuple(f"v{i:02d}" for i in range(n))
        weights = random_connected_weights(rng, labels)
        all_specs = specs_from_weights(rng, labels, weights, alpha=1.0)
        delta_spec = all_specs[2]
        dend = build_dendrogram(UltrametricMatrix(delta_spec.labels, delta_spec.base))
        assign = embed(dend)
        disc = discretize(assign, assign.m + 1)
        for spec in all_specs:
            for measure in ("haar", "nu"):
                gen = generator(spec, disc, measure)
                for t in (0.01, 0.1, 1.0, 10.0):
                    T = semigroup(gen, t)
                    assert np.max(np.abs(T.sum(axis=1) - 1.0)) <= 1e-10
                    assert T.min() >= -1e-12
                    table = heat_kernel(spec, disc, t, measure)
                    gap = float(np.max(np.abs(table * gen.measure[None, :] - T)))
                    assert gap <= 1e-9, (spec.bullet, measure, t, gap)
                    worst_gap = max(worst_gap, gap)
                Ts, Tt, Tst = (semigroup(gen, x) for x in (0.4, 0.6, 1.0))
                assert float(np.max(np.abs(Ts @ Tt - Tst))) <= 1e-9
    report(7, f"spectral and exponential routes agree entrywise "
              f"(worst gap {worst_gap:.2e} <= 1e-9); semigroups stochastic; "
              "semigroup law holds within 1e-9")


def test_criterion_08_truncation_bound():
    rng = np.random.default_rng(1008)
    instances = 0
    min_slack = np.inf
    while instances < 50:
        dend = random_dendrogram(rng, int(rng.integers(3, 9)), max_children=3)
        if dend.max_level > 4:
            continue
        assign = embed(dend)
        disc = discretize(assign, assign.m + 1)
        if len(disc) > 40:
            continue
        delta = dend.delta_matrix()
        spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
        ell = int(rng.integers(1, dend.max_level + 1))
        bounds = []
        for level in range(1, dend.max_level + 1):
            u = rng.uniform(-1, 1, len(disc))
            rep = truncation_bound(spec, disc, level, 1.0, u)
            assert rep.slack >= -1e-9
            if level == ell:
                min_slack = min(min_slack, rep.slack)
            bounds.append(rep.theoretical_bound)
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))
        instances += 1
    report(8, f"50 truncation instances certified at every grid time "
              f"(worst per-time slack {min_slack:.2e} >= -1e-9); "
              "bound non-increasing towards the full tree")


def test_criterion_09_kernel_swap_bound():
    rng = np.random.default_rng(1009)
    count = 0
    min_slack = np.inf
    for i in range(50):
        n = int(rng.integers(3, 11))
        labels = tuple(f"v{i:02d}" for i in range(n))
        if i % 5 == 0:  # complete graphs support the adjacency comparisons too
            weights = {
                frozenset(p): float(rng.uniform(0.5, 3.0))
                for p in itertools.combinations(labels, 2)
            }
        else:
            weights = random_connected_weights(rng, labels)
        kappa_spec, de_spec, delta_spec = specs_from_weights(rng, labels, weights)
        dend = build_dendrogram(UltrametricMatrix(delta_spec.labels, delta_spec.base))
        assign = embed(dend)
        disc = discretize(assign, assign.m + 1)
        pairs = [(de_spec, delta_spec)]
        if i % 5 == 0:
            pairs += [(kappa_spec, de_spec), (kappa_spec, delta_spec)]
        for spec_a, spec_b in pairs:
            for t in (0.1, 1.0, 5.0):
                rep = kernel_swap_bound(spec_a, spec_b, disc, t)
                assert rep.slack >= -1e-9
                min_slack = min(min_slack, rep.slack)
                count += 1
    report(9, f"{count} semigroup-distance checks across kernel pairs stay "
              f"under 2t*sum(C~)*Vol (worst slack {min_slack:.2e} >= -1e-9)")


def test_criterion_10_convergence():
    rng = np.random.default_rng(1010)
    la, lb, lc = (DendrogramNode.leaf(x) for x in "abc")
    inner = DendrogramNode(1.0, (la, lb))
    root = DendrogramNode(2.0, (inner, lc))
    dend = Dendrogram(root)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
    n0 = assign.m + 1
    ref_level = n0 + 4
    disc_ref = discretize(assign, ref_level)
    basis_ref = full_basis(spec, disc_ref, "haar")

    def component_level(record):
        if record.kind != "kozyrev":
            return 0
        return len(record.support.split(":")[1]) + 1

    for _ in range(20):
        support_level = int(rng.integers(n0 + 1, n0 + 3))
        u0 = np.zeros(len(disc_ref))
        for record, psi in zip(basis_ref.records, basis_ref.psi.T):
            lvl = component_level(record)
            if lvl > support_level:
                continue
            u0 = u0 + float(rng.uniform(-1, 1)) * 4.0**-lvl * psi.real
        rows = convergence_study(spec, assign, u0, range(n0, ref_level + 1), 1.0)
        gaps = dict(rows)
        seq = [gaps[n] for n in range(n0, ref_level + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:])), seq
        for n in range(support_level, ref_level + 1):
            assert gaps[n] <= 1e-8, (n, gaps[n])
    report(10, "20 profiles: sup-over-time gap non-increasing in the level and "
               "below 1e-8 from the spectral support level on")
