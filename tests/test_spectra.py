"""Wavelets, closed-form eigenvalues, and basis completeness.

``verify_eigenpair`` against the assembled generator is the oracle for
every closed form; the frozen values below were produced by evaluating
that generator directly (e.g. the single-disc wavelet at p=3, alpha=1,
d=1, m=0 has eigenvalue -5/3).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultraheat import (
    Bullet,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    PAdicCell,
    discretize,
    embed,
    full_basis,
    generator,
    heat_kernel,
    kozyrev_eigenvalue,
    kozyrev_local_eigenvalue,
    kozyrev_wavelet,
    tree_measure,
    ultrametric_eigenvalue,
    ultrametric_wavelet,
    verify_eigenpair,
)
from ultraheat.spectra import ball_spectrum
from ultraheat.errors import (
    BadJ,
    BallOutsideZ,
    DimensionMismatch,
    IncompleteBasis,
    LeafNode,
    TrivialCharacter,
)

from conftest import domain_cells, random_dendrogram


def single_leaf(p=3):
    dend = Dendrogram(DendrogramNode.leaf("a"))
    return dend, embed(dend, p=p)


def two_leaf(radius=2.0):
    kids = (DendrogramNode.leaf("a"), DendrogramNode.leaf("b"))
    dend = Dendrogram(DendrogramNode(radius, kids))
    return dend, embed(dend)


def ultra_spec(dend, alpha=1.0):
    delta = dend.delta_matrix()
    return KernelSpec(Bullet.ULTRAMETRIC, alpha, delta.labels, delta.values)


# --- Kozyrev wavelets -----------------------------------------------------------


def test_kozyrev_p2_values():
    dend, assign = two_leaf()
    disc = discretize(assign, 2)
    B = assign.discs["a"]
    psi = kozyrev_wavelet(disc, B, 1)
    labels = np.array(domain_cells(disc)[1])
    support = psi[labels == "a"]
    amp = 2 ** (assign.m / 2)
    assert sorted(support.real) == pytest.approx([-amp, amp], abs=1e-12)
    assert np.max(np.abs(support.imag)) < 1e-12
    assert np.all(psi[labels == "b"] == 0)


def test_kozyrev_unit_haar_norm_and_zero_mean():
    dend, assign = single_leaf(p=5)
    disc = discretize(assign, 2)
    B = PAdicCell(5, (2,))
    haar = disc.haar_volumes()
    for j in range(1, 5):
        psi = kozyrev_wavelet(disc, B, j)
        assert np.vdot(psi, haar * psi).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.sum(psi * haar)) < 1e-12


def test_kozyrev_disjoint_supports_orthogonal():
    dend, assign = single_leaf(p=2)
    disc = discretize(assign, 3)
    psi1 = kozyrev_wavelet(disc, PAdicCell(2, (0,)), 1)
    psi2 = kozyrev_wavelet(disc, PAdicCell(2, (1,)), 1)
    haar = disc.haar_volumes()
    assert abs(np.vdot(psi1, haar * psi2)) == 0.0


def test_kozyrev_character_orthogonality_p3():
    dend, assign = single_leaf(p=3)
    disc = discretize(assign, 2)
    B = PAdicCell(3, ())
    haar = disc.haar_volumes()
    psi1 = kozyrev_wavelet(disc, B, 1)
    psi2 = kozyrev_wavelet(disc, B, 2)
    assert abs(np.vdot(psi1, haar * psi2)) < 1e-12


def test_kozyrev_errors():
    dend, assign = two_leaf()
    disc = discretize(assign, 2)
    with pytest.raises(BadJ):
        kozyrev_wavelet(disc, assign.discs["a"], 2)  # p = 2
    with pytest.raises(BallOutsideZ):
        kozyrev_wavelet(disc, PAdicCell(2, ()), 1)  # contains both discs


def test_kozyrev_local_eigenvalue_frozen_value():
    # generator-certified: single disc, p=3, alpha=1, d=1, m=0 gives -5/3
    assert kozyrev_local_eigenvalue(3, 1.0, 1, 0) == pytest.approx(-5.0 / 3.0)


def test_kozyrev_local_eigenvalue_sums_its_shells_left_to_right():
    """Frozen on a case where the left-to-right sum of the shells and
    math.fsum (the builtin sum of Python >= 3.12) round apart."""
    shells = [2.0 ** (k * (1.3 - 1.0)) for k in range(3)]
    assert kozyrev_local_eigenvalue(2, 1.3, 3, 0) == -3.739496473001272
    assert -(1 - 1 / 2) * math.fsum(shells) - 2.0 ** (3 * (1.3 - 1.0)) == -3.7394964730012723


def test_kozyrev_eigenvalue_certifies_single_disc():
    dend, assign = single_leaf(p=3)
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, ("a",), np.zeros((1, 1)))
    disc = discretize(assign, 2)
    gen = generator(spec, disc, "haar")
    B = PAdicCell(3, (0,))
    lam = kozyrev_eigenvalue(spec, assign, B, "a")
    assert lam == pytest.approx(-5.0 / 3.0)
    psi = kozyrev_wavelet(disc, B, 1)
    assert verify_eigenpair(gen, psi, lam) < 1e-12


def test_kozyrev_eigenvalue_shift_is_linear_in_cross_rates():
    dend, assign = two_leaf()
    delta = dend.delta_matrix()
    spec = ultra_spec(dend)
    B = assign.discs["a"]
    lam = kozyrev_eigenvalue(spec, assign, B, "a")
    # doubling the jump rate towards the other disc lowers lambda by rate*mass
    spec_half = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values * 2.0)
    lam_half = kozyrev_eigenvalue(spec_half, assign, B, "a")
    mass = 2.0**-assign.m
    expected_shift = (delta.values[0, 1] ** -1.0 - (2 * delta.values[0, 1]) ** -1.0) * mass
    assert lam_half - lam == pytest.approx(expected_shift)


def test_kozyrev_eigenvalue_independent_of_j():
    dend, assign = single_leaf(p=5)
    spec = KernelSpec(Bullet.ULTRAMETRIC, 2.0, ("a",), np.zeros((1, 1)))
    disc = discretize(assign, 2)
    gen = generator(spec, disc, "haar")
    B = PAdicCell(5, (3,))
    lam = kozyrev_eigenvalue(spec, assign, B, "a")
    for j in range(1, 5):
        psi = kozyrev_wavelet(disc, B, j)
        assert verify_eigenpair(gen, psi, lam) < 1e-12


def test_kozyrev_local_eigenvalue_strictly_decreasing_in_d():
    for p in (2, 3, 5):
        for alpha in (1.0, 2.0):
            for m in (0, 1, 2):
                vals = [kozyrev_local_eigenvalue(p, alpha, d, m) for d in range(m, m + 6)]
                assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kozyrev_eigenvalue_nonpositive():
    rng = np.random.default_rng(79)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(2, 8)), max_children=3)
        assign = embed(dend)
        spec = ultra_spec(dend, alpha=float(rng.choice([1.0, 2.0])))
        for label in assign.labels:
            lam = kozyrev_eigenvalue(spec, assign, assign.discs[label], label)
            assert lam <= 0.0


# --- ultrametric wavelets ----------------------------------------------------------


def test_ultrametric_wavelet_two_children_values():
    dend, assign = two_leaf()
    disc = discretize(assign, 2)
    psi = ultrametric_wavelet(disc, dend.root, 1)
    vals = sorted(set(np.round(psi.real, 12)))
    assert vals == [-1.0, 1.0]  # nu(root)^(-1/2) = 1


def test_ultrametric_wavelet_zero_mean_unit_norm():
    rng = np.random.default_rng(83)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(3, 15)), max_children=4)
        assign = embed(dend)
        disc = discretize(assign, assign.m + 1)
        vols = disc.nu_volumes()
        for node in dend.internal_nodes():
            for k in range(1, len(node.children)):
                psi = ultrametric_wavelet(disc, node, k)
                assert abs(np.sum(psi * vols)) < 1e-12
                assert np.vdot(psi, vols * psi).real == pytest.approx(1.0, abs=1e-12)


def test_ultrametric_wavelet_errors():
    dend, assign = two_leaf()
    disc = discretize(assign, 2)
    with pytest.raises(LeafNode):
        ultrametric_wavelet(disc, dend.leaves["a"], 1)
    with pytest.raises(TrivialCharacter):
        ultrametric_wavelet(disc, dend.root, 0)


def test_ultrametric_eigenvalue_root_frozen():
    # two children at distance r, each child mass 1/2: gamma = -1/r
    dend, assign = two_leaf(radius=2.0)
    nu = tree_measure(dend)
    gamma = ultrametric_eigenvalue(nu, dend.root, 1.0)
    assert gamma == pytest.approx(-0.5)


def test_ultrametric_eigenvalue_certifies_on_matrix():
    rng = np.random.default_rng(89)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(3, 12)), max_children=3)
        assign = embed(dend)
        nu = tree_measure(dend)
        delta = dend.delta_matrix()
        spec = ultra_spec(dend)
        disc = discretize(assign, assign.m + 1)
        gen = generator(spec, disc, "nu")
        for node in dend.internal_nodes():
            # the radius the closed form reads is the children's largest distance
            diam = max(delta.of(u, v) for a, b in itertools.combinations(node.children, 2)
                       for u in a.members for v in b.members)
            assert math.isclose(diam, node.radius, rel_tol=1e-12)
            gamma = ultrametric_eigenvalue(nu, node, 1.0)
            for k in range(1, len(node.children)):
                psi = ultrametric_wavelet(disc, node, k)
                assert verify_eigenpair(gen, psi, gamma) < 1e-10


def test_ultrametric_eigenvalue_shared_across_characters():
    labels = tuple("abc")
    kids = tuple(DendrogramNode.leaf(l) for l in labels)
    dend = Dendrogram(DendrogramNode(1.5, kids))
    assign = embed(dend)
    nu = tree_measure(dend)
    spec = ultra_spec(dend)
    disc = discretize(assign, assign.m + 1)
    gen = generator(spec, disc, "nu")
    gamma = ultrametric_eigenvalue(nu, dend.root, 1.0)
    for k in (1, 2):
        psi = ultrametric_wavelet(disc, dend.root, k)
        assert verify_eigenpair(gen, psi, gamma) < 1e-10


# --- block modes -----------------------------------------------------------------


def test_block_modes_single_vertex():
    dend, assign = single_leaf(p=2)
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, ("a",), np.zeros((1, 1)))
    disc = discretize(assign, 1)
    lams = ball_spectrum(spec, disc).evals
    assert len(lams) == 1
    assert lams[0] == pytest.approx(0.0, abs=1e-14)


def test_block_modes_two_vertices_closed_form():
    dend, assign = two_leaf(radius=2.0)
    spec = ultra_spec(dend)
    disc = discretize(assign, assign.m + 1)
    rate = 2.0**-1.0  # delta(a,b)^-alpha
    vol = 2.0**-assign.m
    lams = sorted(ball_spectrum(spec, disc).evals)
    assert lams[1] == pytest.approx(0.0, abs=1e-14)
    assert lams[0] == pytest.approx(-2 * rate * vol)


def test_block_modes_nonpositive():
    rng = np.random.default_rng(97)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(2, 10)), max_children=3)
        assign = embed(dend)
        spec = ultra_spec(dend)
        disc = discretize(assign, assign.m + 1)
        assert np.all(ball_spectrum(spec, disc).evals <= 1e-12)


# --- root-of-unity identity ----------------------------------------------------------


def test_root_of_unity_exchange_identity():
    for n in range(2, 8):
        zeta = np.exp(2j * math.pi / n)
        for j in range(n):
            total = sum(zeta**j - zeta**l for l in range(n) if l != j)
            assert abs(total - n * zeta**j) < 1e-12


# --- full bases -----------------------------------------------------------------------


def test_full_basis_counts():
    dend, assign = two_leaf()
    spec = ultra_spec(dend)
    disc = discretize(assign, assign.m + 1)
    haar_basis = full_basis(spec, disc, "haar")
    kinds = sorted(r.kind for r in haar_basis.records)
    assert kinds == ["block", "block", "kozyrev", "kozyrev"]
    nu_basis = full_basis(spec, disc, "nu")
    kinds = sorted(r.kind for r in nu_basis.records)
    assert kinds == ["constant", "kozyrev", "kozyrev", "ultrametric"]


def test_full_basis_gram_and_projector_identity():
    rng = np.random.default_rng(101)
    for _ in range(6):
        dend = random_dendrogram(rng, int(rng.integers(2, 7)), max_children=3)
        assign = embed(dend)
        spec = ultra_spec(dend)
        disc = discretize(assign, assign.m + 1)
        for measure in ("haar", "nu"):
            basis = full_basis(spec, disc, measure)
            eye = np.eye(len(basis))
            assert np.max(np.abs(basis.gram() - eye)) < 1e-10
            assert np.max(np.abs(basis.projector_sum() - eye)) < 1e-10
            assert max(r.residual for r in basis.records) < 1e-10


def test_full_basis_other_bullets_under_nu():
    rng = np.random.default_rng(103)
    dend = random_dendrogram(rng, 5, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    base = delta.values + np.where(~np.eye(5, dtype=bool), 0.3, 0.0)
    spec = KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, delta.labels, base)
    disc = discretize(assign, assign.m + 1)
    basis = full_basis(spec, disc, "nu")
    assert max(r.residual for r in basis.records) < 1e-10
    assert np.max(np.abs(basis.gram() - np.eye(len(basis)))) < 1e-10


def test_full_basis_spectrum_sign():
    rng = np.random.default_rng(107)
    dend = random_dendrogram(rng, 6, max_children=3)
    assign = embed(dend)
    spec = ultra_spec(dend, alpha=2.0)
    disc = discretize(assign, assign.m + 1)
    for measure in ("haar", "nu"):
        basis = full_basis(spec, disc, measure)
        assert all(r.lam <= 1e-12 for r in basis.records)


def test_verify_eigenpair_detects_wrong_lambda():
    dend, assign = two_leaf()
    spec = ultra_spec(dend)
    disc = discretize(assign, assign.m + 1)
    gen = generator(spec, disc, "haar")
    ones = np.ones(len(disc))
    assert verify_eigenpair(gen, ones, 0.0) == 0.0
    wrong = verify_eigenpair(gen, ones, 1.0)
    assert wrong >= 0.5 / max(1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        verify_eigenpair(gen, np.ones(3), 0.0)


def test_full_basis_incomplete_detection():
    """A full basis has one eigenpair per cell; a basis short of one dense
    column and its record counts one fewer."""
    import dataclasses

    dend, assign = two_leaf()
    spec = ultra_spec(dend)
    disc = discretize(assign, assign.m + 1)
    basis = full_basis(spec, disc, "haar")
    assert len(basis) == len(disc)
    broken = dataclasses.replace(basis, coarse=basis.coarse[:, :-1], records=basis.records[:-1])
    assert len(broken) == len(disc) - 1


def test_full_basis_on_a_truncated_domain_raises_before_the_generator(monkeypatch):
    """Filler cells have no basis functions: the count is refused before
    the spectrum, any table or any generator is built."""
    import ultraheat.operators as operators
    import ultraheat.spectra as spectra
    from ultraheat.operators import truncated_domain

    monkeypatch.setattr(operators, "generator", lambda *args: pytest.fail("generator was built"))
    monkeypatch.setattr(spectra, "ball_spectrum", lambda *args: pytest.fail("spectrum was built"))
    rng = np.random.default_rng(137)
    dend = random_dendrogram(rng, 5, max_children=3)
    assign = embed(dend, 3)
    dom, _ = truncated_domain(assign, 1, assign.m + 1)
    assert len(dom) > len(assign.labels) * 3  # the cut balls hold filler
    with pytest.raises(IncompleteBasis):
        full_basis(ultra_spec(dend), dom, "haar")


# --- batched certification -------------------------------------------------------


def random_bases(seed):
    """A Haar basis (graph distance kernel) and a nu basis (ultrametric
    kernel), each with its assembled generator."""
    from conftest import random_connected_weights, specs_from_weights

    rng = np.random.default_rng(seed)
    dend = random_dendrogram(rng, 7, max_children=3)
    assign = embed(dend)
    disc = discretize(assign, assign.m + 2)
    _, gd_spec, _ = specs_from_weights(rng, assign.labels, random_connected_weights(rng, assign.labels))
    return [(full_basis(spec, disc, measure), generator(spec, disc, measure))
            for spec, measure in ((gd_spec, "haar"), (ultra_spec(dend), "nu"))]


def test_batched_verify_matches_per_column():
    for basis, gen in random_bases(97):
        psi, lams = basis.psi, basis.eigenvalues()
        per_column = np.array(
            [verify_eigenpair(gen, np.array(psi[:, k]), lams[k]) for k in range(len(lams))]
        )
        batched = verify_eigenpair(gen, psi, lams)
        assert batched.shape == (len(lams),)
        assert np.max(np.abs(batched - per_column)) <= 1e-12
        factored = np.array([r.residual for r in basis.records])
        assert np.all(np.abs(factored - batched) <= rounding_bound(gen, psi, lams))
        real = verify_eigenpair(gen, psi.real, lams)
        per_real = [verify_eigenpair(gen, np.array(psi[:, k].real), lams[k]) for k in range(len(lams))]
        assert np.max(np.abs(real - per_real)) <= 1e-12


def test_batched_verify_shape_errors():
    (haar, gen), _ = random_bases(5)
    psi = haar.psi
    with pytest.raises(DimensionMismatch):
        verify_eigenpair(gen, psi, haar.eigenvalues()[:-1])
    with pytest.raises(DimensionMismatch):
        verify_eigenpair(gen, psi[:-1], haar.eigenvalues())


def test_full_basis_keeps_one_psi_matrix_and_its_factors():
    """The basis keeps Psi's factors and the cell masses, and no generator:
    one s x (s - 1) Kozyrev table, the K root densities (1 under Haar) and
    the K x K values of the disc-constant columns on the discs.  Psi is assembled
    from them once, on first read, bit for bit disc k's block ``kozyrev /
    root[k]`` and the last K columns the coarse table repeated onto the
    cells, for the block modes and for the constant and the ultrametric
    wavelets (under nu with the ultrametric kernel)."""
    for p in (2, 3, 5):
        rng = np.random.default_rng(41 + p)
        dend = random_dendrogram(rng, 5, max_children=p)
        assign = embed(dend, p)
        disc = discretize(assign, assign.m + 2)
        K, s = len(assign.labels), p ** 2
        for spec in (ultra_spec(dend), bullet_spec(Bullet.GRAPH_DISTANCE, dend, rng, 1.0)):
            for measure in ("haar", "nu"):
                basis = full_basis(spec, disc, measure)
                assert not hasattr(basis, "generator")
                assert np.array_equal(basis.measure, generator(spec, disc, measure).measure)
                assert "psi" not in vars(basis)
                assert basis.kozyrev.shape == (s, s - 1)
                assert basis.coarse.shape == (K, K)
                assert basis.root.shape == (K,)
                if measure == "haar":
                    assert np.all(basis.root == 1.0)
                psi = basis.psi
                assert psi is basis.psi
                assert not psi.flags.writeable
                assert psi.shape == (K * s, K * s)
                w = s - 1
                for k in range(K):
                    block = psi[k * s:(k + 1) * s, k * w:(k + 1) * w]
                    assert block.tobytes() == (basis.kozyrev / basis.root[k]).tobytes()
                    off = np.delete(psi[:, k * w:(k + 1) * w], np.s_[k * s:(k + 1) * s], axis=0)
                    assert np.all(off == 0)
                lifted = np.ascontiguousarray(psi[:, K * w:])
                assert lifted.tobytes() == np.repeat(basis.coarse, s, axis=0).tobytes()
                kinds = [r.kind for r in basis.records[K * w:]]
                if measure == "nu" and spec.bullet is Bullet.ULTRAMETRIC:
                    assert kinds[0] == "constant" and set(kinds[1:]) == {"ultrametric"}
                    wavelets = [np.ones(K * s)] + [
                        ultrametric_wavelet(disc, node, k)
                        for node in assign.dendrogram.internal_nodes()
                        for k in range(1, len(node.children))]
                    assert np.array_equal(lifted, np.column_stack(wavelets))
                else:
                    assert set(kinds) == {"block"}
                assert len(basis) == len(basis.records) == K * s


def test_kozyrev_wavelet_matches_cell_loop():
    rng = np.random.default_rng(43)
    dend = random_dendrogram(rng, 5, max_children=3)
    assign = embed(dend)
    p = assign.p
    disc = discretize(assign, assign.m + 2)
    for label in assign.labels:
        prefix = assign.discs[label].digits
        for B in (PAdicCell(p, prefix), PAdicCell(p, prefix + (p - 1,))):
            for j in range(1, p):
                amp = float(p) ** (B.level / 2.0)
                expected = np.zeros(len(disc), dtype=complex)
                for i, cell in enumerate(domain_cells(disc)[0]):
                    if cell.digits[: B.level] == B.digits:
                        a = cell.digits[B.level]
                        expected[i] = amp * np.exp(2j * math.pi * j * a / p)
                assert np.array_equal(kozyrev_wavelet(disc, B, j), expected)


def test_full_basis_kozyrev_eigenvalues_equal_the_closed_form_bit_for_bit():
    rng = np.random.default_rng(109)
    dend = random_dendrogram(rng, 6, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    base = delta.values + np.where(~np.eye(6, dtype=bool), 0.3, 0.0)
    disc = discretize(assign, assign.m + 2)
    for spec in (ultra_spec(dend, alpha=1.5),
                 KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, delta.labels, base)):
        for measure in ("haar", "nu"):
            records = [r for r in full_basis(spec, disc, measure).records if r.kind == "kozyrev"]
            assert len(records) == len(disc) - len(assign.labels)
            for r in records:
                label, digits = r.support.split(":")
                B = PAdicCell(assign.p, tuple(int(d) for d in digits))
                assert r.lam == kozyrev_eigenvalue(spec, assign, B, label, measure)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_full_basis_kozyrev_columns_equal_the_wavelets_bit_for_bit(p):
    rng = np.random.default_rng(113 + p)
    dend = random_dendrogram(rng, 4, max_children=p)
    assign = embed(dend, p)
    nu = tree_measure(dend)
    disc = discretize(assign, assign.m + (3 if p == 2 else 2))
    spec = ultra_spec(dend, alpha=1.5)
    for measure in ("haar", "nu"):
        basis = full_basis(spec, disc, measure)
        columns = [k for k, r in enumerate(basis.records) if r.kind == "kozyrev"]
        assert len(columns) == len(disc) - len(assign.labels)
        for k in columns:
            r = basis.records[k]
            label, digits = r.support.split(":")
            B = PAdicCell(p, tuple(int(d) for d in digits))
            expected = kozyrev_wavelet(disc, B, r.index)
            if measure == "nu":
                expected = expected / math.sqrt(float(nu.leaf_mass(label)) * float(p) ** assign.m)
            assert np.array_equal(basis.psi[:, k], expected)


# --- the disc-block layout of full bases -------------------------------------------

MAX_LAYOUT_CELLS = 700


def bullet_spec(bullet, dend, rng, alpha):
    """The dendrogram's ultrametric kernel, or the adjacency or graph
    distance kernel of a random connected graph on its leaves."""
    from conftest import random_connected_weights, specs_from_weights

    if bullet is Bullet.ULTRAMETRIC:
        return ultra_spec(dend, alpha)
    labels = tuple(sorted(dend.labels, key=str))
    adjacency, graphdist, _ = specs_from_weights(
        rng, labels, random_connected_weights(rng, labels), alpha)
    return adjacency if bullet is Bullet.ADJACENCY else graphdist


def rounding_bound(A, psi, lams):
    """How far two evaluations of one residual may round apart, per column:
    each entry of A psi - lam psi is a dot product of length N, whose
    rounding error is below (N + 2) eps (sum_j |A_ij| |psi_j| + |lam psi_i|)
    however its terms are grouped (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), taken twice and relative like the residual.
    The residuals from the basis's factors and the dense
    ``verify_eigenpair`` group the terms differently, and so do
    ``verify_eigenpair`` on one column and on a block."""
    norm = np.max(np.abs(A.matrix).sum(axis=1))
    return (2 * (len(psi) + 2) * np.finfo(float).eps * (norm + np.abs(lams))
            * np.max(np.abs(psi), axis=0) / np.maximum(1.0, np.abs(lams)))


@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    alpha=st.sampled_from([1.0, 1.5]),
    bullet=st.sampled_from(list(Bullet)),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(2, 5),
    t=st.sampled_from([0.0, 0.3, 2.0]),
)
def test_full_basis_disc_blocks_equal_the_dense_products(p, alpha, bullet, seed, leaves, t):
    """At levels m+1..m+3 under Haar and nu: the Kozyrev columns are exactly
    0 off their disc's cells, the residuals from the factors are the dense
    ``verify_eigenpair`` of the whole basis, and the heat kernel of the
    pure-ball spectrum is the dense (Psi e^(Lambda t)) Psi^H."""
    rng = np.random.default_rng(seed)
    dend = random_dendrogram(rng, leaves, max_children=p)
    assign = embed(dend, p)
    spec = bullet_spec(bullet, dend, rng, alpha)
    K = len(assign.labels)
    for n in range(assign.m + 1, assign.m + 4):
        s = p ** (n - assign.m)
        if K * s > MAX_LAYOUT_CELLS:
            break
        disc = discretize(assign, n)
        for measure in ("haar", "nu"):
            basis = full_basis(spec, disc, measure)
            psi, lams = basis.psi, basis.eigenvalues()
            assert basis.kozyrev.shape == (s, s - 1) and basis.coarse.shape == (K, K)
            off_block = np.ones((K * s, K * (s - 1)), dtype=bool)
            for k in range(K):
                off_block[k * s:(k + 1) * s, k * (s - 1):(k + 1) * (s - 1)] = False
            assert np.all(psi[:, :K * (s - 1)][off_block] == 0)
            assert all(r.kind == "kozyrev" for r in basis.records[:K * (s - 1)])
            assert not any(r.kind == "kozyrev" for r in basis.records[K * (s - 1):])

            gen = generator(spec, disc, measure)
            dense = verify_eigenpair(gen, psi, lams)
            factored = np.array([r.residual for r in basis.records])
            assert np.all(np.abs(factored - dense) <= rounding_bound(gen, psi, lams))

            table = heat_kernel(spec, disc, t, measure)
            expected = ((psi * np.exp(t * lams)[None, :]) @ psi.conj().T).real
            assert np.max(np.abs(table - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_blockwise_residuals_catch_errors_outside_the_disc():
    """A perturbed entry of the shared Kozyrev table (the column is no
    longer an eigenvector, and its mean on the disc is no longer 0) and a
    Kozyrev eigenvalue shifted by 1e-6 both show in the residual from the
    factors of the affected column.  The first also shows on the rows off
    the disc, where the residual from the factors is the dense one."""
    import dataclasses

    from ultraheat.spectra import _basis_residuals, ball_spectrum

    rng = np.random.default_rng(127)
    dend = random_dendrogram(rng, 4, max_children=3)
    assign = embed(dend, 3)
    disc = discretize(assign, assign.m + 2)
    spec = ultra_spec(dend)
    basis = full_basis(spec, disc, "nu")
    gen, lams = generator(spec, disc, "nu"), basis.eigenvalues()
    rates = ball_spectrum(spec, disc, "nu").coarse
    s = basis.kozyrev.shape[0]
    assert max(r.residual for r in basis.records) < 1e-12
    col = s - 1  # disc 1's first Kozyrev column, the shared table's column 0
    kozyrev = basis.kozyrev.copy()
    kozyrev[0, 0] += 1e-3
    assert abs(kozyrev[:, 0].mean()) > 1e-5
    perturbed = dataclasses.replace(basis, kozyrev=kozyrev)
    psi = perturbed.psi
    factored = _basis_residuals(spec, disc, rates, kozyrev, basis.root, basis.coarse, lams)
    dense = verify_eigenpair(gen, psi, lams)
    assert factored[col] > 1e-9
    assert np.all(np.abs(factored - dense) <= rounding_bound(gen, psi, lams))
    r = gen.matrix @ psi[:, col] - lams[col] * psi[:, col]
    outside = np.max(np.abs(np.delete(r, np.s_[s:2 * s]))) / max(1.0, abs(lams[col]))
    assert 1e-9 < outside <= factored[col]

    shifted = lams.copy()
    shifted[col] += 1e-6
    factors = basis.kozyrev, basis.root, basis.coarse
    assert _basis_residuals(spec, disc, rates, *factors, shifted)[col] > 1e-9


def test_full_basis_builds_no_n_by_n_array():
    """On K = 60 discs of s = 9 cells the basis and its residuals come from
    the factors: nothing near one N x N float array (N = 540) is held."""
    import tracemalloc

    rng = np.random.default_rng(139)
    dend = random_dendrogram(rng, 60, max_children=3)
    assign = embed(dend, 3)
    disc = discretize(assign, assign.m + 2)
    N = len(disc)
    tracemalloc.start()
    try:
        basis = full_basis(ultra_spec(dend, 1.3), disc, "nu")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == N == 540
    assert peak < N * N * 8 / 4
    assert max(r.residual for r in basis.records) <= 1e-9


@pytest.mark.parametrize("p, leaves, max_children", [(2, 9, 2), (3, 12, 3), (5, 7, 5)])
def test_nu_coarse_columns_equal_the_ultrametric_wavelets_bit_for_bit(p, leaves, max_children):
    """Under nu with the ultrametric kernel, the coarse column of each
    (internal node, k) is `ultrametric_wavelet(disc, node, k)` on the
    discs' first cells, bit for bit, in the order of the records."""
    rng = np.random.default_rng(149 + p)
    dend = random_dendrogram(rng, leaves, max_children=max_children)
    assign = embed(dend, p)
    disc = discretize(assign, assign.m + 1)
    basis = full_basis(ultra_spec(dend, 1.3), disc, "nu")
    first = len(disc) - len(assign.labels)  # the first coarse column's record
    assert basis.records[first].kind == "constant" and np.all(basis.coarse[:, 0] == 1.0)
    column = 1
    for node in dend.internal_nodes():
        for k in range(1, len(node.children)):
            record = basis.records[first + column]
            assert (record.kind, record.index) == ("ultrametric", k)
            expected = ultrametric_wavelet(disc, node, k)[disc.leaf_start]
            assert basis.coarse[:, column].tobytes() == expected.tobytes()
            column += 1
    assert column == len(assign.labels)


def _per_disc_residuals(spec, disc, rates, kozyrev, root, coarse, lam):
    """`_basis_residuals` as one loop over the discs: the oracle of its
    chunked broadcast, bit for bit and in traced memory."""
    from ultraheat.operators import _prefix_table

    p, n, w, K = disc.p, disc.level, kozyrev.shape[1], len(root)
    lam = np.asarray(lam, dtype=float)
    err = np.empty(len(lam))
    err[K * w:] = np.abs(rates @ coarse - coarse * lam[K * w:]).max(axis=0, initial=0.0)
    j = np.minimum(_prefix_table(p, disc.assignment.m, n), n - 1)
    table = (float(p) ** -j) ** -spec.alpha * float(p) ** -n
    np.fill_diagonal(table, 0.0)
    np.fill_diagonal(table, -table.sum(axis=1))
    local, mean = table @ kozyrev, np.abs(kozyrev.mean(axis=0))
    for k, root_k in enumerate(root):
        block, cols = kozyrev / root_k, slice(k * w, (k + 1) * w)
        on_disc = np.abs(local * root_k + block * rates[k, k] - block * lam[cols]).max(axis=0)
        cross = rates[:, k].max(initial=0.0)
        err[cols] = np.maximum(on_disc, cross * (mean / root_k))
    return err / np.maximum(1.0, np.abs(lam))


@pytest.mark.parametrize("p, leaves, extra", [(2, 3, 9), (3, 4, 5), (2, 40, 5), (3, 25, 3)])
def test_chunked_residuals_are_the_per_disc_loop(p, leaves, extra):
    """`_basis_residuals` checks whole discs in chunks of at most
    BLOCK_ENTRIES Kozyrev entries (one disc where s (s - 1) is larger):
    under Haar and nu its residuals are those of the per-disc loop bit for
    bit, and where a chunk is one disc (s = 512 and 243 cells) its traced
    peak is the loop's within 1 %: one more array of a disc's s (s - 1)
    complex entries would add about a fifth."""
    import tracemalloc

    from ultraheat.operators import BLOCK_ENTRIES
    from ultraheat.spectra import _basis_residuals

    rng = np.random.default_rng(151 + leaves)
    dend = random_dendrogram(rng, leaves, max_children=p)
    assign = embed(dend, p)
    disc = discretize(assign, assign.m + extra)
    s, spec = p ** extra, ultra_spec(dend, 1.3)
    for measure in ("haar", "nu"):
        basis = full_basis(spec, disc, measure)
        args = (spec, disc, ball_spectrum(spec, disc, measure).coarse, basis.kozyrev, basis.root,
                basis.coarse, basis.eigenvalues())
        results, peaks = [], []
        for residuals in (_per_disc_residuals, _basis_residuals):
            tracemalloc.start()
            try:
                results.append(residuals(*args))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        expected, err = results
        assert err.tobytes() == expected.tobytes()
        assert np.all(err == np.array([r.residual for r in basis.records]))
        if s * (s - 1) > BLOCK_ENTRIES:
            assert peaks[1] <= 1.01 * peaks[0], peaks


def test_ball_spectrum_solves_its_coarse_matrix_on_first_read_only(monkeypatch):
    import ultraheat.spectra as spectra
    from ultraheat.spectra import ball_spectrum

    solved = []
    original = spectra.weighted_symmetric_eig
    monkeypatch.setattr(spectra, "weighted_symmetric_eig",
                        lambda L, mass: solved.append(len(L)) or original(L, mass))
    rng = np.random.default_rng(131)
    dend = random_dendrogram(rng, 5, max_children=3)
    assign = embed(dend)
    disc = discretize(assign, assign.m + 1)
    spec = ultra_spec(dend)
    full_basis(spec, disc, "nu")  # the ultrametric wavelets need no block modes
    assert solved == []
    full_basis(spec, disc, "haar")
    assert solved == [5]
    spectrum = ball_spectrum(spec, disc, "nu")
    assert spectrum.evals is spectrum.evals and spectrum.vecs is spectrum.vecs
    assert solved == [5, 5]
