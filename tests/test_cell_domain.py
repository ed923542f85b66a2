"""The array-backed cell domain against the per-cell enumeration it replaced."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ultraheat import (
    Bullet,
    KernelSpec,
    PAdicCell,
    discretize,
    embed,
    full_basis,
    generator,
    kozyrev_wavelet,
    truncated_domain,
)
from ultraheat.operators import cut_nodes

from conftest import domain_cells, enumerate_cells, random_dendrogram

MAX_ORACLE_CELLS = 1500


def mask_wavelet(digits, B, j, p):
    """The Kozyrev wavelet from a scan of the whole digit matrix."""
    values = np.array([float(p) ** (B.level / 2.0) * np.exp(2j * math.pi * j * a / p)
                       for a in range(p)])
    inside = np.all(digits[:, : B.level] == np.asarray(B.digits, dtype=np.int64), axis=1)
    out = np.zeros(len(digits), dtype=complex)
    out[inside] = values[digits[inside, B.level]]
    return out


def domains(assign, n):
    """The discretisation and every truncated domain at level n, with the
    balls the enumeration walks, when small enough to enumerate."""
    p = assign.p
    out = [(discretize(assign, n), [assign.discs[label] for label in assign.labels])]
    for ell in range(1, assign.dendrogram.max_level + 1):
        balls = [assign.cell_of(node) for node in cut_nodes(assign, ell)]
        if sum(p ** (n - ball.level) for ball in balls) <= MAX_ORACLE_CELLS:
            out.append((truncated_domain(assign, ell, n)[0], balls))
    return out


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**32 - 1),
    leaves=st.integers(2, 6),
    extra=st.integers(1, 3),
)
def test_cell_domain_equals_the_per_cell_enumeration(p, seed, leaves, extra):
    rng = np.random.default_rng(seed)
    assign = embed(random_dendrogram(rng, leaves, max_children=p), p)
    n = assign.m + extra
    disc = discretize(assign, n)
    for dom, balls in domains(assign, n):
        cells, labels, blocks = enumerate_cells(assign, balls, n)
        digits = [c.digits for c in cells]
        assert dom.digit_matrix().tolist() == [list(d) for d in digits]
        assert dom.block_index.tolist() == blocks
        assert dom.leaf_index.tolist() == [
            -1 if label is None else assign.labels.index(label) for label in labels
        ]
        index = {d: i for i, d in enumerate(digits)}
        for i, d in enumerate(digits):
            assert dom.index_of(PAdicCell(p, d)) == i
        # the pure balls: the largest ball inside the block around each cell
        # whose cells all carry one label
        seen: dict = {}  # (block, digit prefix) -> (labels, first cell)
        for i, d in enumerate(digits):
            for lv in range(len(balls[blocks[i]].digits), n + 1):
                found, first = seen.get((blocks[i], d[:lv]), (set(), i))
                seen[(blocks[i], d[:lv])] = (found | {labels[i]}, first)
        pure = set()
        for i, d in enumerate(digits):
            lv = next(lv for lv in range(len(balls[blocks[i]].digits), n + 1)
                      if len(seen[(blocks[i], d[:lv])][0]) == 1)
            pure.add((seen[(blocks[i], d[:lv])][1], lv))
        starts, levels = dom.pure_balls()
        assert list(zip(starts.tolist(), levels.tolist())) == sorted(pure)
        if dom.cut_level is None:
            assert levels.tolist() == [assign.m] * len(assign.labels)
        # the zero extension of a discretisation into the domain
        disc_cells = enumerate_cells(assign, [assign.discs[l] for l in assign.labels], n)[0]
        assert disc.positions_in(dom).tolist() == [index[c.digits] for c in disc_cells]
        # Kozyrev wavelets on balls at every level inside every disc
        matrix = np.array(digits, dtype=np.int64)
        for label in assign.labels:
            prefix = assign.discs[label].digits
            for d in range(assign.m, n):
                B = PAdicCell(p, prefix + tuple(rng.integers(0, p, d - assign.m).tolist()))
                for j in range(1, p):
                    assert np.array_equal(kozyrev_wavelet(dom, B, j),
                                          mask_wavelet(matrix, B, j, p))


def test_domains_and_generators_build_no_cell_objects(monkeypatch):
    rng = np.random.default_rng(5)
    dend = random_dendrogram(rng, 6, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.3, delta.labels, delta.values)

    built = []
    original = PAdicCell.__post_init__
    monkeypatch.setattr(PAdicCell, "__post_init__",
                        lambda self: built.append(self) or original(self))
    for n in (assign.m + 1, assign.m + 2):
        disc = discretize(assign, n)
        for measure in ("haar", "nu"):
            generator(spec, disc, measure)
            full_basis(spec, disc, measure)
        for ell in range(1, dend.max_level + 1):
            generator(spec, truncated_domain(assign, ell, n)[0])
    # the only cells built are the block balls (vertex discs, cut nodes),
    # digits on demand from the node depths, none of level n
    assert built and all(cell.level <= assign.m for cell in built)


def test_nu_is_the_assignments_own_tree_measure_built_once(monkeypatch):
    """Under "nu" the generator's masses are the domain's ``nu_volumes()``
    and the leaf masses of ``tree_measure`` of the domain's own dendrogram,
    bit for bit; the tree measure is built once per assignment."""
    import ultraheat.padic as padic

    rng = np.random.default_rng(29)
    dend = random_dendrogram(rng, 7, max_children=3)
    assign = embed(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.2, delta.labels, delta.values)
    built = []
    original = padic.tree_measure
    monkeypatch.setattr(padic, "tree_measure", lambda d: built.append(d) or original(d))
    for n in (assign.m + 1, assign.m + 2):
        disc = discretize(assign, n)
        gen = generator(spec, disc, "nu")
        full_basis(spec, disc, "nu")
        nu = original(disc.assignment.dendrogram)
        per_cell = assign.p ** (n - assign.m)
        leaf_masses = [float(nu.leaf_mass(label) / per_cell) for label in domain_cells(disc)[1]]
        assert np.array_equal(gen.measure, disc.nu_volumes())
        assert np.array_equal(gen.measure, np.array(leaf_masses))
    assert built == [dend]
    assert assign.nu is assign.nu
