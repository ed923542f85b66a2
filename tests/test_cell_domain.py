"""The array-backed cell domain against the per-cell enumeration it replaced."""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ultraheat import (
    Bullet,
    KernelSpec,
    PAdicCell,
    discretize,
    embed,
    generator,
    kozyrev_wavelet,
    tree_measure,
    truncated_domain,
)
from ultraheat.operators import cut_nodes

from conftest import random_dendrogram

MAX_ORACLE_CELLS = 1500


def enumerate_cells(assign, balls, n):
    """Every level-n cell of the balls, ball by ball in digit order, with its
    vertex label (None for filler) and ball ordinal: one PAdicCell each."""
    p = assign.p
    digits, labels, blocks = [], [], []
    for k, ball in enumerate(balls):
        for suffix in itertools.product(range(p), repeat=n - ball.level):
            cell = PAdicCell(p, ball.digits + suffix)
            digits.append(cell.digits)
            labels.append(assign.vertex_of(cell))
            blocks.append(k)
    return digits, labels, blocks


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
        digits, labels, blocks = enumerate_cells(assign, balls, n)
        assert dom.digit_matrix().tolist() == [list(d) for d in digits]
        assert [c.digits for c in dom.cells] == digits
        assert dom.leaf_labels == tuple(labels)
        assert dom.block_index.tolist() == blocks
        assert dom.leaf_index.tolist() == [
            -1 if label is None else assign.labels.index(label) for label in labels
        ]
        index = {d: i for i, d in enumerate(digits)}
        for i, d in enumerate(digits):
            assert dom.index_of(PAdicCell(p, d)) == i
            assert dom.cells[i].digits == d
        assert dom.cells[-1].digits == digits[-1]
        # the zero extension of a discretisation into the domain
        disc_digits = enumerate_cells(assign, [assign.discs[l] for l in assign.labels], n)[0]
        assert disc.positions_in(dom).tolist() == [index[d] for d in disc_digits]
        # Kozyrev wavelets on balls at every level inside every disc
        matrix = np.array(digits, dtype=np.int64)
        for label in assign.labels:
            prefix = assign.discs[label].digits
            for d in range(assign.m, n):
                B = PAdicCell(p, prefix + tuple(rng.integers(0, p, d - assign.m).tolist()))
                for j in range(1, p):
                    assert np.array_equal(kozyrev_wavelet(assign, dom, B, j),
                                          mask_wavelet(matrix, B, j, p))


def test_domains_and_generators_build_no_cell_objects(monkeypatch):
    rng = np.random.default_rng(5)
    dend = random_dendrogram(rng, 6, max_children=3)
    assign = embed(dend)
    nu = tree_measure(dend)
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.3, delta.labels, delta.values)

    built = []
    original = PAdicCell.__post_init__
    monkeypatch.setattr(PAdicCell, "__post_init__",
                        lambda self: built.append(self) or original(self))
    for n in (assign.m + 1, assign.m + 2):
        disc = discretize(assign, n)
        for measure, tm in (("haar", None), ("nu", nu)):
            gen = generator(spec, assign, disc, measure, tm)
            assert gen.cells is disc.cells
        for ell in range(1, dend.max_level + 1):
            generator(spec, assign, truncated_domain(assign, ell, n)[0])
    assert built == []
    disc.cells[0]  # a cell is built only when it is read
    assert len(built) == 1
