"""Kernels and exact finite generators.

Exactness oracle: a brute-force double sum over cell pairs two levels
finer must reproduce the matrix action on locally constant functions.
"""

import numpy as np
import pytest

from ultraheat import (
    Bullet,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    PAdicCell,
    degree,
    discretize,
    embed,
    generator,
    kernel_value,
    truncated_domain,
)
from ultraheat.errors import CellOutsideZ, InvalidLevel
from ultraheat.operators import _prefix_table, cut_nodes, kernel_matrix
from ultraheat.padic import padic_distance

from conftest import domain_cells, random_dendrogram


def simple_assignment():
    la = DendrogramNode.leaf("a")
    lb = DendrogramNode.leaf("b")
    lc = DendrogramNode.leaf("c")
    inner = DendrogramNode(1.0, (la, lb))
    root = DendrogramNode(2.0, (inner, lc))
    dend = Dendrogram(root)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
    return dend, assign, spec


def test_kernel_value_same_disc_vladimirov():
    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 2)
    cells = [c for c, l in zip(*domain_cells(disc)) if l == "a"]
    x, y = cells[0], cells[1]
    expected = padic_distance(x, y) ** -1.0
    assert kernel_value(spec, assign, x, y) == pytest.approx(expected)


def test_kernel_value_cross_disc_and_power():
    dend, assign, spec2 = simple_assignment()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 2.0, spec2.labels, spec2.base)
    disc = discretize(assign, assign.m + 1)
    cells, labels = domain_cells(disc)
    xa, xc = cells[labels.index("a")], cells[labels.index("c")]
    assert kernel_value(spec, assign, xa, xc) == pytest.approx(2.0**-2.0)  # delta = 2


def test_kernel_value_nonadjacent_is_zero():
    dend, assign, _ = simple_assignment()
    kappa = np.zeros((3, 3))
    kappa[0, 1] = kappa[1, 0] = 0.5  # only a-b adjacent
    spec = KernelSpec(Bullet.ADJACENCY, 1.0, ("a", "b", "c"), kappa)
    disc = discretize(assign, assign.m + 1)
    cells, labels = domain_cells(disc)
    xa, xc = cells[labels.index("a")], cells[labels.index("c")]
    assert kernel_value(spec, assign, xa, xc) == 0.0


def test_kernel_value_outside_domain():
    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 1)
    outside = PAdicCell(assign.p, (1, 1) + (0,) * (disc.level - 2))
    cells, labels = domain_cells(disc)
    xa = cells[labels.index("a")]
    with pytest.raises(CellOutsideZ):
        kernel_value(spec, assign, xa, outside)


def test_kernel_symmetry():
    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 2)
    K = kernel_matrix(spec, disc)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 0)
    assert np.all(K >= 0)


def test_generator_two_state_closed_form():
    assign = embed(Dendrogram(DendrogramNode(
        2.0, (DendrogramNode.leaf("a"), DendrogramNode.leaf("b")),
    )))
    delta = assign.dendrogram.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
    disc = discretize(assign, assign.m + 1)
    gen = generator(spec, disc, "haar")
    # within-disc rate p^(m*alpha) towards the sibling cell, measure p^-n
    p, m, n = assign.p, assign.m, disc.level
    rate_in = float(p) ** (m * 1.0) * float(p) ** -n
    labels = domain_cells(disc)[1]
    for i, lab in enumerate(labels):
        row = gen.matrix[i]
        assert row.sum() == pytest.approx(0.0, abs=1e-12)
        sibling = [j for j, l2 in enumerate(labels) if l2 == lab and j != i]
        assert row[sibling[0]] == pytest.approx(rate_in)


def test_generator_rows_sum_to_zero_and_annihilate_constants():
    dend, assign, spec = simple_assignment()
    for measure in ("haar", "nu"):
        disc = discretize(assign, assign.m + 2)
        gen = generator(spec, disc, measure)
        assert gen.row_sum_defect() < 1e-12
        ones = np.ones(len(disc))
        assert np.max(np.abs(gen.matrix @ ones)) < 1e-12
        off = gen.matrix[~np.eye(len(disc), dtype=bool)]
        assert np.all(off >= 0)


def test_generator_self_adjoint_under_measure():
    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 1)
    for measure in ("haar", "nu"):
        gen = generator(spec, disc, measure)
        weighted = gen.measure[:, None] * gen.matrix
        assert np.max(np.abs(weighted - weighted.T)) < 1e-14


def quadrature_action(spec, assign, disc_coarse, disc_fine, u):
    """Independent oracle: double sum over fine cells of rate * measure."""
    fine_cells, coarse_cells = domain_cells(disc_fine)[0], domain_cells(disc_coarse)[0]
    fine_of = {}
    for idx, cell in enumerate(fine_cells):
        fine_of.setdefault(cell.digits[: disc_coarse.level], []).append(idx)
    fine_measure = float(assign.p) ** -disc_fine.level
    out = np.zeros(len(disc_coarse))
    for i, cell in enumerate(coarse_cells):
        x = fine_cells[fine_of[cell.digits][0]]
        acc = 0.0
        for j, coarse_y in enumerate(coarse_cells):
            for jf in fine_of[coarse_y.digits]:
                y = fine_cells[jf]
                if y.digits == x.digits:
                    continue
                acc += kernel_value(spec, assign, x, y) * (u[j] - u[i]) * fine_measure
        out[i] = acc
    return out


def test_generator_matches_quadrature_oracle():
    rng = np.random.default_rng(71)
    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 1)
    fine = discretize(assign, assign.m + 3)
    gen = generator(spec, disc, "haar")
    for _ in range(5):
        u = rng.uniform(-1, 1, len(disc))
        direct = gen.matrix @ u
        oracle = quadrature_action(spec, assign, disc, fine, u)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - oracle)) / scale < 1e-10


def test_degree_examples_and_monotonicity():
    dend, assign, spec = simple_assignment()
    degs = []
    for extra in (1, 2, 3):
        disc = discretize(assign, assign.m + extra)
        x = domain_cells(disc)[0][0]
        degs.append(degree(spec, disc, x))
    assert degs[0] <= degs[1] <= degs[2]
    assert degs[0] < degs[2]  # unboundedness witness for alpha >= 1


def test_truncated_domain_no_op_at_max_level():
    dend, assign, spec = simple_assignment()
    n = assign.m + 1
    dom, cut = truncated_domain(assign, dend.max_level, n, spec)
    disc = discretize(assign, n)
    assert sorted(dom.digit_matrix().tolist()) == sorted(disc.digit_matrix().tolist())
    assert dom.vol_filler == 0.0
    K_cut = kernel_matrix(spec, dom)
    K = kernel_matrix(spec, disc)
    reorder = [dom.index_of(c) for c in domain_cells(disc)[0]]
    assert np.allclose(K_cut[np.ix_(reorder, reorder)], K, rtol=0, atol=0)
    with pytest.raises(ValueError, match="Haar measure"):
        generator(spec, dom, "nu")


def test_truncated_kernel_vladimirov_inside_cut_ball():
    dend, assign, spec = simple_assignment()
    n = assign.m + 1
    dom, _ = truncated_domain(assign, 1, n, spec)
    K = kernel_matrix(spec, dom)
    digits = dom.digit_matrix()
    for i in range(len(dom)):
        for j in range(len(dom)):
            if i == j:
                continue
            if dom.block_index[i] == dom.block_index[j]:
                dist = float(assign.p) ** -int(
                    np.cumprod(digits[i] == digits[j]).sum()
                )
                assert K[i, j] == pytest.approx(dist**-spec.alpha)


def test_max_cut_rate_equals_the_kernel_maximum_between_discs_and_filler():
    """The cut rate read off the deepest filler pure ball is bit for bit the
    largest disc-to-filler entry of the assembled cut kernel."""
    rng = np.random.default_rng(79)
    checked = 0
    for p in (2, 3, 5):
        for _ in range(6):
            dend = random_dendrogram(rng, int(rng.integers(3, 8)), max_children=p)
            assign = embed(dend, p)
            alpha = float(rng.choice([1.0, 1.3, 2.0]))
            delta = dend.delta_matrix()
            spec = KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values)
            for ell in range(1, dend.max_level + 1):
                for n in (assign.m + 1, assign.m + 2):
                    dom, cut = truncated_domain(assign, ell, n, spec)
                    if len(dom) > 1500:
                        continue
                    z = dom.leaf_index >= 0
                    K = kernel_matrix(spec, dom)
                    expected = float(K[np.ix_(z, ~z)].max()) if not z.all() else 0.0
                    assert cut.max_rate_z_to_filler() == expected
                    checked += not z.all()
    assert checked > 20


def test_truncated_domain_volume_monotone():
    rng = np.random.default_rng(73)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(4, 12)), max_children=3)
        assign = embed(dend)
        n = assign.m + 1
        fillers = []
        for ell in range(1, dend.max_level + 1):
            dom, _ = truncated_domain(assign, ell, n)
            assert dom.vol_filler >= 0.0
            assert dom.vol_z == pytest.approx(
                len(assign.labels) * float(assign.p) ** -assign.m
            )
            fillers.append(dom.vol_filler)
        assert all(a >= b - 1e-15 for a, b in zip(fillers, fillers[1:]))


def test_cut_nodes_follow_str_order_not_preorder():
    """The root over {a, z} and the leaf m: preorder lists a, z, m, but the
    cut nodes at level 2, and so the blocks of the truncated domain, run
    a, m, z by their str-smallest label."""
    a, z, m = (DendrogramNode.leaf(x) for x in "azm")
    dend = Dendrogram(DendrogramNode(2.0, (DendrogramNode(1.0, (a, z)), m)))
    assert dend.order == ("a", "z", "m")
    assign = embed(dend)
    assert cut_nodes(assign, 2) == [a, m, z]
    dom, _ = truncated_domain(assign, 2)
    assert dom.balls == tuple(assign.discs[x] for x in "amz")
    assert dom.leaf_index.tolist() == [assign.labels.index(x) for x in "amz" for _ in range(assign.p)]


def test_truncated_domain_invalid_level():
    dend, assign, _ = simple_assignment()
    with pytest.raises(InvalidLevel):
        truncated_domain(assign, 0)
    with pytest.raises(InvalidLevel):
        truncated_domain(assign, dend.max_level + 1)


def test_truncated_domain_counts_cells_before_enumerating():
    from ultraheat.errors import TooManyCells

    dend, assign, _ = simple_assignment()
    with pytest.raises(TooManyCells, match="dense-matrix limit"):
        truncated_domain(assign, 1, assign.m + 60)


def test_adjacency_rates_may_exceed_one():
    labels = ("a", "b")
    kappa = np.array([[0.0, 0.25], [0.25, 0.0]])
    spec = KernelSpec(Bullet.ADJACENCY, 2.0, labels, kappa)
    rates = spec.cross_rates()
    assert rates[0, 1] == pytest.approx(16.0)


def test_isolated_vertex_degree_has_no_cross_component():
    # vertex c is adjacent to nobody: its outgoing rate is purely intra-disc
    dend, assign, _ = simple_assignment()
    kappa = np.zeros((3, 3))
    kappa[0, 1] = kappa[1, 0] = 0.5  # only a-b adjacent
    spec = KernelSpec(Bullet.ADJACENCY, 1.0, ("a", "b", "c"), kappa)
    disc = discretize(assign, assign.m + 1)
    cells, labels = domain_cells(disc)
    x = cells[labels.index("c")]
    p, m, n = assign.p, assign.m, disc.level
    intra_only = (p - 1) * float(p) ** (m * spec.alpha) * float(p) ** -n
    assert degree(spec, disc, x) == pytest.approx(intra_only)


def test_generator_refuses_oversized_dense_matrices(monkeypatch):
    """A domain built directly, past ``discretize``'s own count, still
    meets the dense limit in ``generator`` before the kernel matrix."""
    import ultraheat.operators as operators
    from ultraheat.errors import TooManyCells
    from ultraheat.padic import CellDomain

    _, assign, spec = simple_assignment()
    level = assign.m + 12
    dom = CellDomain(assign, level, tuple(assign.discs[label] for label in assign.labels))
    assert len(dom) == 3 * 2**12 > operators.MAX_DENSE_CELLS
    for name in ("kernel_matrix", "kernel_rows"):
        monkeypatch.setattr(operators, name, lambda *args: pytest.fail("kernel matrix built"))
    with pytest.raises(TooManyCells, match="dense-matrix limit"):
        operators.generator(spec, dom)


def chain_dendrogram(n_leaves):
    """A caterpillar: every internal node has one leaf child and the rest,
    so the tree has n_leaves - 1 levels and embeds over p = 2 with m =
    n_leaves - 1."""
    labels = [f"v{i:03d}" for i in range(n_leaves)]
    node = DendrogramNode.leaf(labels[-1])
    for k in range(n_leaves - 2, -1, -1):
        leaf = DendrogramNode.leaf(labels[k])
        node = DendrogramNode(float(n_leaves - k), (leaf, node))
    return Dendrogram(node)


def test_prefix_table_matches_cumprod_oracle():
    """Inside every block ball, the prefix table equals the common-prefix
    count of the cells' own digits: p = 2, 3, 5, discretisations and
    truncated domains (ball levels 0..m), and a deep p = 2 chain."""
    domains = []
    rng = np.random.default_rng(79)
    for p in (2, 3, 5):
        for _ in range(3):
            dend = random_dendrogram(rng, int(rng.integers(3, 8)), max_children=2)
            assign = embed(dend, p)
            for n in (assign.m + 1, assign.m + 2):
                domains.append(discretize(assign, n))
                domains += [truncated_domain(assign, ell, n)[0]
                            for ell in range(1, dend.max_level + 1)
                            if p ** (n - ell) <= 500]
    chain = embed(chain_dendrogram(40), 2)
    assert chain.m == 39
    domains.append(discretize(chain, chain.m + 1))
    domains += [truncated_domain(chain, ell, chain.m + 1)[0] for ell in range(31, 40)]
    levels = set()
    for dom in domains:
        digits = dom.digit_matrix()
        for ball in dom.balls:
            cells = dom.ball_range(ball)
            d = digits[cells.start:cells.stop]
            expected = np.cumprod(d[:, None, :] == d[None, :, :], axis=2).sum(axis=2)
            assert np.array_equal(_prefix_table(dom.p, ball.level, dom.level), expected)
            levels.add((dom.p, ball.level, dom.level))
    assert {p for p, _, _ in levels} == {2, 3, 5}
    assert max(n - b for _, b, n in levels) >= 9 and max(b for _, b, _ in levels) == 39


def test_generator_checks_dense_limit_before_allocating(monkeypatch):
    import ultraheat.operators as operators

    def unreachable(*args):
        raise AssertionError("an N x N array was built before the size check")

    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 2)
    dom, _ = truncated_domain(assign, 1, assign.m + 2)
    monkeypatch.setattr(operators, "MAX_DENSE_CELLS", 4)
    for name in ("kernel_matrix", "kernel_rows", "_prefix_table"):
        monkeypatch.setattr(operators, name, unreachable)
    for domain in (disc, dom):
        with pytest.raises(ValueError, match="dense-matrix limit"):
            generator(spec, domain, "haar")


def test_checked_largest_entry_is_the_generator_maximum():
    """The rate check's closed-form largest entry, from p, alpha, n and the
    disc masses, is the largest |entry| of the assembled generator."""
    from conftest import random_connected_weights, specs_from_weights
    from ultraheat.operators import _disc_rates

    rng = np.random.default_rng(89)
    for _ in range(4):
        dend = random_dendrogram(rng, int(rng.integers(2, 8)), max_children=3)
        assign = embed(dend)
        n = assign.m + 2
        disc = discretize(assign, n)
        weights = random_connected_weights(rng, assign.labels)
        inputs = [(disc, "haar"), (disc, "nu")] + [
            (truncated_domain(assign, ell, n)[0], "haar") for ell in range(1, dend.max_level + 1)]
        for spec in specs_from_weights(rng, assign.labels, weights, float(rng.uniform(1, 3))):
            for dom, measure in inputs:
                largest = np.abs(generator(spec, dom, measure).matrix).max()
                assert _disc_rates(spec, dom, measure)[3] == pytest.approx(largest, rel=1e-12)


def test_an_overflowing_rate_or_entry_raises_before_any_array(monkeypatch):
    """A cross rate above the float range makes the largest generator entry
    infinite, and a deep level the Vladimirov rate p^((n-1) alpha): both
    raise RateOverflow before any N x N array, from the generator and from
    the closed-form spectrum alike.  Inside one cut ball the cross rate is
    replaced by the Vladimirov rate, so it cannot overflow there."""
    import ultraheat.operators as operators
    from ultraheat import graph_dendrogram
    from ultraheat.errors import RateOverflow
    from ultraheat.spectra import ball_spectrum

    def unreachable(*args):
        raise AssertionError("an N x N array was built before the rate check")

    dend, assign, spec = simple_assignment()  # labels a, b, c; cut level 1 is {a, b}, {c}
    n = assign.m + 2
    disc, cut = discretize(assign, n), truncated_domain(assign, 1, n)[0]
    for i, j in ((0, 2), (0, 1)):
        tiny = spec.base.copy()
        tiny[i, j] = tiny[j, i] = 1e-160  # rate 1e320 at alpha = 2
        bad = KernelSpec(Bullet.ULTRAMETRIC, 2.0, spec.labels, tiny)
        inputs = [(disc, "haar"), (disc, "nu"), (cut, "haar")]
        if j == 1:  # a and b share a cut ball, where their cross rate is not used
            inputs.pop()
            with np.errstate(over="ignore"):
                assert np.isfinite(generator(bad, cut).matrix).all()
                ball_spectrum(bad, cut)
        with np.errstate(over="ignore"), monkeypatch.context() as patch:
            for name in ("kernel_matrix", "kernel_rows", "_prefix_table"):
                patch.setattr(operators, name, unreachable)
            for dom, measure in inputs:
                for build in (generator, ball_spectrum):
                    with pytest.raises(RateOverflow, match="generator entry"):
                        build(bad, dom, measure)

    # a 1000-vertex path whose weights fall along it: a chain, p = 2, m = 999
    labels = [f"v{i:04d}" for i in range(1000)]
    chain = embed(graph_dendrogram(labels, {frozenset(labels[i:i + 2]): 1.0 / (i + 2)
                                            for i in range(999)}))
    delta = chain.dendrogram.delta_matrix()
    dom = discretize(chain, 1000)
    for name in ("kernel_matrix", "kernel_rows", "_prefix_table"):
        monkeypatch.setattr(operators, name, unreachable)
    for alpha, measure in ((1.3, "haar"), (1.3, "nu"), (1.1, "haar")):
        deep = KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values)
        for build in (generator, ball_spectrum):
            with pytest.raises(RateOverflow, match=r"jump rate 2\^\(999"):
                build(deep, dom, measure)


def test_degree_equals_generator_diagonal():
    from conftest import random_connected_weights, specs_from_weights

    rng = np.random.default_rng(83)
    dend = random_dendrogram(rng, 6, max_children=3)
    assign = embed(dend)
    n = assign.m + 2
    disc = discretize(assign, n)
    # every cut level's truncated domain, whose blocks hold several discs and filler
    truncated = [truncated_domain(assign, ell, n)[0] for ell in range(1, dend.max_level + 1)]
    specs = specs_from_weights(rng, assign.labels, random_connected_weights(rng, assign.labels), 1.5)
    for spec in specs:
        inputs = [(disc, "haar"), (disc, "nu")] + [(dom, "haar") for dom in truncated]
        for dom, measure in inputs:
            diag = -np.diag(generator(spec, dom, measure).matrix)
            degs = [degree(spec, dom, x, measure) for x in domain_cells(dom)[0]]
            assert np.allclose(degs, diag, rtol=1e-12, atol=0)


def test_alpha_below_one_raises_typed_error():
    from ultraheat.errors import BadAlpha, UltraheatError

    labels = ("a", "b")
    base = np.array([[0.0, 1.0], [1.0, 0.0]])
    for alpha in (0.5, 0.999, float("nan")):
        with pytest.raises(BadAlpha) as info:
            KernelSpec(Bullet.ULTRAMETRIC, alpha, labels, base)
        assert isinstance(info.value, UltraheatError)
    assert KernelSpec(Bullet.ULTRAMETRIC, 1, labels, base).alpha == 1


def test_infinite_alpha_raises_bad_alpha():
    from ultraheat.errors import BadAlpha

    base = np.array([[0.0, 1.0], [1.0, 0.0]])
    for alpha in (float("inf"), float("-inf")):
        with pytest.raises(BadAlpha, match="finite"):
            KernelSpec(Bullet.ULTRAMETRIC, alpha, ("a", "b"), base)


def test_kernel_errors_are_typed_and_still_value_errors():
    from ultraheat.errors import BadKernel
    from ultraheat.operators import _leaf_indices

    labels = ("a", "b")
    bad_bases = {
        "shape": np.zeros((3, 3)),
        "symmetric": np.array([[0.0, 1.0], [2.0, 0.0]]),
        "non-negative": np.array([[0.0, -1.0], [-1.0, 0.0]]),
        "positive off the diagonal": np.zeros((2, 2)),
    }
    for match, base in bad_bases.items():
        with pytest.raises(BadKernel, match=match) as info:
            KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, labels, base)
        assert isinstance(info.value, ValueError)

    dend, assign, spec = simple_assignment()
    disc = discretize(assign, assign.m + 1)
    other = KernelSpec(Bullet.ULTRAMETRIC, 1.0, ("x", "y", "z"), spec.base)
    with pytest.raises(BadKernel, match="do not match"):
        _leaf_indices(other, disc)
    with pytest.raises(BadKernel, match="unknown measure"):
        generator(spec, disc, "lebesgue")


def test_truncated_domains_refuse_nu_and_unknown_measures_alike():
    """``generator`` and ``degree`` read one measure vector: on a truncated
    domain "nu" is a ValueError and an unknown measure a BadKernel for both."""
    from ultraheat.errors import BadKernel

    dend, assign, spec = simple_assignment()
    dom, _ = truncated_domain(assign, 1, assign.m + 1)
    x = domain_cells(dom)[0][0]
    for build in (lambda m: generator(spec, dom, m), lambda m: degree(spec, dom, x, m)):
        with pytest.raises(ValueError, match="Haar measure"):
            build("nu")
        with pytest.raises(BadKernel, match="unknown measure"):
            build("lebesgue")
