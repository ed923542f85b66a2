"""The dense-matrix size guard: every builder that counts cells raises
TooManyCells exactly when its count exceeds MAX_DENSE_CELLS, and before
it allocates anything the size of the count.

The counts are computed here from the tree alone (vertices times p^(n-m)
for a discretisation, p^(n - depth) summed over the cut nodes for a
truncated domain).  ``generator``, ``full_basis`` and
``_BallEvolver.matrix`` build N x N arrays below the cap, so their
boundary is checked with the cap moved to the domain's own size, where
the arrays are small; the counting builders are checked at the real cap.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ultraheat.operators as operators
from ultraheat import (
    Bullet,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    discretize,
    embed,
    full_basis,
    generator,
    graph_dendrogram,
    truncated_domain,
)
from ultraheat.errors import TooManyCells
from ultraheat.heat import _BallEvolver
from ultraheat.operators import MAX_DENSE_CELLS, cut_nodes
from ultraheat.padic import cell_count

from conftest import random_dendrogram


def chain_assignment(n_leaves=1000):
    """A path whose weights fall along it: a caterpillar of n - 1 levels,
    p = 2 and m = n - 1."""
    labels = [f"v{i:04d}" for i in range(n_leaves)]
    return embed(graph_dendrogram(labels, {frozenset(labels[i:i + 2]): 1.0 / (i + 2)
                                           for i in range(n_leaves - 1)}))


CHAIN = chain_assignment()


def disc_count(assign, n):
    return len(assign.labels) * assign.p ** (n - assign.m)


def cut_count(assign, ell, n):
    return sum(assign.p ** (n - assign.depths[node.index]) for node in cut_nodes(assign, ell))


def assert_counting_guards(assign, n, cap):
    """cell_count, discretize and truncated_domain at level n against a cap."""
    count = disc_count(assign, n)
    if count > cap:
        for build in (cell_count, discretize):
            with pytest.raises(TooManyCells, match="dense-matrix limit"):
                build(assign, n)
    else:
        assert cell_count(assign, n) == count == len(discretize(assign, n))
    for ell in range(1, assign.dendrogram.max_level + 1):
        count = cut_count(assign, ell, n)
        if count > cap:
            with pytest.raises(TooManyCells, match="dense-matrix limit"):
                truncated_domain(assign, ell, n)
        else:
            assert len(truncated_domain(assign, ell, n)[0]) == count


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1),
       leaves=st.integers(2, 7), extra=st.integers(1, 16))
def test_counting_builders_raise_exactly_above_the_cap(p, seed, leaves, extra):
    assign = embed(random_dendrogram(np.random.default_rng(seed), leaves, max_children=p), p)
    assert_counting_guards(assign, assign.m + extra, MAX_DENSE_CELLS)


@pytest.mark.parametrize("extra", [1, 2, 3, 4, 40])
def test_the_thousand_leaf_chain_meets_the_cap(extra):
    """1000 discs of 2^extra cells: 8000 cells pass, 16000 do not; the cut
    levels near the root hold coarse balls, so they meet the cap first."""
    n = CHAIN.m + extra
    assert (disc_count(CHAIN, n) <= MAX_DENSE_CELLS) == (extra <= 3)
    for ell in (1, 2, CHAIN.dendrogram.max_level):
        count = cut_count(CHAIN, ell, n)
        if count > MAX_DENSE_CELLS:
            with pytest.raises(TooManyCells, match="dense-matrix limit"):
                truncated_domain(CHAIN, ell, n)
        else:
            assert len(truncated_domain(CHAIN, ell, n)[0]) == count
    if extra == 40:
        for build in (cell_count, discretize):
            with pytest.raises(TooManyCells, match="dense-matrix limit"):
                build(CHAIN, n)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1),
       leaves=st.integers(2, 5), extra=st.integers(1, 2), above=st.booleans())
def test_every_guard_raises_exactly_above_a_moved_cap(p, seed, leaves, extra, above):
    """With the cap at a domain's own size less one (``above``) or at its
    size, every guard raises exactly when its count exceeds the cap."""
    dend = random_dendrogram(np.random.default_rng(seed), leaves, max_children=p)
    assign = embed(dend, p)
    n = assign.m + extra
    delta = dend.delta_matrix()
    spec = KernelSpec(Bullet.ULTRAMETRIC, 1.2, delta.labels, delta.values)
    disc = discretize(assign, n)
    cuts = [truncated_domain(assign, ell, n)[0] for ell in range(1, dend.max_level + 1)]
    for dom in [disc, *cuts]:
        cap = len(dom) - 1 if above else len(dom)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(operators, "MAX_DENSE_CELLS", cap)
            assert_counting_guards(assign, n, cap)
            builds = [lambda: generator(spec, dom), lambda: _BallEvolver(spec, dom).matrix(0.5),
                      lambda: _BallEvolver(spec, dom).matrix(0.0)]
            if dom is disc:
                builds.append(lambda: full_basis(spec, dom))
            for build in builds:
                if above:
                    with pytest.raises(TooManyCells, match="dense-matrix limit"):
                        build()
                else:
                    build()


def test_a_request_of_about_ten_to_the_fifteen_cells_allocates_nothing_first():
    """cell_count, discretize and truncated_domain refuse about 10^15 cells
    (more at the chain's coarse cut levels) with a peak of traced
    allocations below one int64 array at the cap."""
    small = embed(Dendrogram(DendrogramNode(1.0, [DendrogramNode.leaf(x) for x in "abc"])))
    requests = [(small, small.m + 31, 1), (CHAIN, CHAIN.m + 40, 1), (CHAIN, CHAIN.m + 40, 2)]
    for assign, n, ell in requests:
        assert 10**15 < disc_count(assign, n) < 10**16
        assert disc_count(assign, n) <= cut_count(assign, ell, n)
        assign.discs  # the assignment's own disc digits, built once per tree
    tracemalloc.start()
    try:
        for assign, n, ell in requests:
            for build in (lambda: cell_count(assign, n), lambda: discretize(assign, n),
                          lambda: truncated_domain(assign, ell, n)):
                tracemalloc.reset_peak()
                with pytest.raises(TooManyCells, match="about 10\\^"):
                    build()
                assert tracemalloc.get_traced_memory()[1] < 8 * MAX_DENSE_CELLS
    finally:
        tracemalloc.stop()


def test_truncated_domain_refuses_a_huge_level_from_its_log():
    """At level 10^8 the count of a 6-leaf p = 3 tree has tens of millions
    of digits; its log refuses it before it is formed, within a second."""
    assign = embed(random_dendrogram(np.random.default_rng(4), 6, max_children=3), 3)
    start = time.perf_counter()
    with pytest.raises(TooManyCells, match="about 10\\^4771212"):
        truncated_domain(assign, 1, 10**8)
    assert time.perf_counter() - start < 1.0
