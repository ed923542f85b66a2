"""Cells, embeddings, the radius lookup, measures, discretisation.

Disjointness oracle: pairwise digit-prefix comparison of leaf discs.
"""

from fractions import Fraction

import numpy as np
import pytest

from ultraheat import (
    Dendrogram,
    DendrogramNode,
    PAdicCell,
    discretize,
    embed,
    padic_distance,
    tree_measure,
)
from ultraheat.errors import LevelTooCoarse, PrimeMismatch, TooManyCells

from conftest import random_dendrogram


def leaf_pair(radius=2.0, labels=("a", "b")):
    kids = tuple(DendrogramNode.leaf(l) for l in labels)
    root = DendrogramNode(radius, kids)
    return Dendrogram(root)


def test_padic_distance_examples():
    assert padic_distance(PAdicCell(3, (1, 2)), PAdicCell(3, (1, 0))) == pytest.approx(1 / 3)
    assert padic_distance(PAdicCell(3, (1, 2)), PAdicCell(3, (1, 2))) == 0.0
    assert padic_distance(PAdicCell(3, (0, 1)), PAdicCell(3, (1, 1))) == 1.0


def test_padic_distance_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        padic_distance(PAdicCell(2, (0,)), PAdicCell(3, (0,)))


def test_embed_two_children_gives_p2():
    assign = embed(leaf_pair())
    assert assign.p == 2
    assert assign.m == 1
    assert sorted(str(assign.discs[l]) for l in assign.labels) == ["0", "1"]


def test_embed_five_children_gives_p5():
    labels = tuple("abcde")
    kids = tuple(DendrogramNode.leaf(l) for l in labels)
    dend = Dendrogram(DendrogramNode(1.0, kids))
    assert embed(dend).p == 5


def test_embed_rejects_small_prime():
    labels = tuple("abc")
    kids = tuple(DendrogramNode.leaf(l) for l in labels)
    dend = Dendrogram(DendrogramNode(1.0, kids))
    with pytest.raises(ValueError):
        embed(dend, p=2)


def test_embed_leaf_discs_disjoint_random():
    rng = np.random.default_rng(47)
    for _ in range(25):
        dend = random_dendrogram(rng, int(rng.integers(2, 40)))
        assign = embed(dend)
        discs = [assign.discs[l] for l in assign.labels]
        assert all(c.level == assign.m for c in discs)
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                assert discs[i].digits != discs[j].digits
                assert padic_distance(discs[i], discs[j]) > 0


def test_node_cells_extend_their_parents():
    """A child's digits are its parent's, its branch index and zeros up to
    its depth (m for a leaf); the root is the empty ball."""
    rng = np.random.default_rng(61)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(1, 30)))
        assign = embed(dend)
        assert assign.cell_of(dend.root) == PAdicCell(assign.p, ())
        for node in dend.nodes:
            cell = assign.cell_of(node)
            assert cell.level == (assign.m if node.is_leaf else assign.depths[node.index])
            for idx, child in enumerate(node.children):
                pad = (0,) * (assign.depths[child.index] - cell.level - 1)
                assert assign.cell_of(child).digits == cell.digits + (idx,) + pad
        assert assign.discs == {label: assign.cell_of(leaf) for label, leaf in dend.leaves.items()}


def rho_of(assign) -> dict:
    """The map rho from the p-adic distance of two leaf discs to the leaves'
    ultrametric distance, over all leaf pairs; a distance that meets two
    ultrametric distances fails here."""
    rho = {}
    for u in assign.labels:
        for v in assign.labels:
            if u != v:
                dist = padic_distance(assign.discs[u], assign.discs[v])
                assert rho.setdefault(dist, assign.dendrogram.delta(u, v)) == (
                    assign.dendrogram.delta(u, v))
    return rho


def test_embed_rho_compatibility():
    """rho(|x - y|_p) is the ultrametric distance of the leaves: one value per
    p-adic distance, which is p^-k with k the depth of the leaves' lowest
    common ancestor."""
    rng = np.random.default_rng(53)
    for _ in range(15):
        dend = random_dendrogram(rng, int(rng.integers(2, 25)))
        assign = embed(dend)
        rho = rho_of(assign)
        for node in dend.internal_nodes():
            assert rho[float(assign.p) ** -assign.depths[node.index]] == node.radius


def test_rho_table_strictly_increasing():
    """rho is strictly increasing, and it meets every internal radius."""
    rng = np.random.default_rng(59)
    for _ in range(15):
        dend = random_dendrogram(rng, int(rng.integers(2, 25)))
        rho = sorted(rho_of(embed(dend)).items())
        assert all(a[1] < b[1] for a, b in zip(rho, rho[1:]))
        assert [r for _, r in rho] == sorted({n.radius for n in dend.internal_nodes()})


def test_tree_measure_examples():
    la = DendrogramNode.leaf("a")
    lb = DendrogramNode.leaf("b")
    lc = DendrogramNode.leaf("c")
    inner = DendrogramNode(1.0, (la, lb))
    root = DendrogramNode(2.0, (inner, lc))
    dend = Dendrogram(root)
    nu = tree_measure(dend)
    assert nu.of(dend.root) == Fraction(1)
    assert nu.leaf_mass("c") == Fraction(1, 2)
    assert nu.leaf_mass("a") == nu.leaf_mass("b") == Fraction(1, 4)


def test_tree_measure_single_leaf():
    dend = Dendrogram(DendrogramNode.leaf("x"))
    assert tree_measure(dend).leaf_mass("x") == Fraction(1)


def test_tree_measure_balanced_binary():
    labels = [f"l{i}" for i in range(8)]

    def build(ls, r):
        if len(ls) == 1:
            return DendrogramNode.leaf(ls[0])
        mid = len(ls) // 2
        return DendrogramNode(r, (build(ls[:mid], r / 2), build(ls[mid:], r / 2)))

    dend = Dendrogram(build(labels, 8.0))
    nu = tree_measure(dend)
    for l in labels:
        assert nu.leaf_mass(l) == Fraction(1, 8)


def test_tree_measure_children_equal_and_additive():
    rng = np.random.default_rng(61)
    for _ in range(10):
        dend = random_dendrogram(rng, int(rng.integers(2, 30)))
        nu = tree_measure(dend)
        for node in dend.internal_nodes():
            masses = {nu.of(c) for c in node.children}
            assert len(masses) == 1
            assert sum(nu.of(c) for c in node.children) == nu.of(node)
        assert sum(nu.leaf_mass(l) for l in dend.labels) == Fraction(1)


def test_discretize_counting():
    assign = embed(leaf_pair())
    disc = discretize(assign, 2)
    assert len(disc) == 4
    assert np.all(disc.haar_volumes() == 0.25)


def test_discretize_branching_count():
    labels = tuple("abc")
    kids = tuple(DendrogramNode.leaf(l) for l in labels)
    dend = Dendrogram(DendrogramNode(1.0, kids))
    assign = embed(dend)  # p = 3, m = 1
    disc = discretize(assign, 2)
    assert disc.leaf_index.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_discretize_nu_volumes_sum_per_leaf():
    rng = np.random.default_rng(67)
    dend = random_dendrogram(rng, 6)
    assign = embed(dend)
    nu = tree_measure(dend)
    disc = discretize(assign, assign.m + 2)
    vols = disc.nu_volumes()
    assert vols.sum() == pytest.approx(1.0, abs=1e-15)
    for k, lab in enumerate(assign.labels):
        mask = disc.leaf_index == k
        assert vols[mask].sum() == pytest.approx(float(nu.leaf_mass(lab)), abs=1e-15)


def test_discretize_rejects_coarse_level():
    assign = embed(leaf_pair())
    with pytest.raises(LevelTooCoarse):
        discretize(assign, assign.m)


def test_discretize_counts_cells_before_enumerating():
    from ultraheat.padic import cell_count

    assign = embed(random_dendrogram(np.random.default_rng(3), 6))
    for n in range(assign.m + 1, assign.m + 3):
        assert cell_count(assign, n) == len(discretize(assign, n))
    # 6 * p^60 cells: enumerating them would never finish
    with pytest.raises(TooManyCells, match="dense-matrix limit"):
        discretize(assign, assign.m + 60)
