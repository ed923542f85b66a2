"""Encoding/decoding of topology families.

Oracle for dimensions: exhaustive enumeration of all directed paths.
"""

import json
import math
import time

import numpy as np
import pytest

from ultraheat import TopologyFamily, WeightedMultiGraph, decode, encode
from ultraheat.cli import main
from ultraheat.errors import (
    AmbiguousOrientation,
    CyclicInput,
    DuplicatePrime,
    NotPrime,
    UnknownPrimeFactor,
)
from ultraheat.multitopo import PRIME_BOUND, chain_lengths, first_primes, is_prime

from conftest import random_family


def longest_path_by_enumeration(vertices, edges, start):
    """Walk every directed path from start; exponential, oracle-only."""
    succ = {v: [] for v in vertices}
    for u, v in edges:
        succ[u].append(v)
    best = 0
    stack = [(start, 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        for nxt in succ[node]:
            stack.append((nxt, depth + 1))
    return best


def worked_family():
    return TopologyFamily(
        ("a", "b", "c"),
        (frozenset({("a", "b")}), frozenset({("a", "b"), ("b", "c")})),
        (2, 3),
    )


def test_encode_worked_example():
    g = encode(worked_family())
    assert g.w[frozenset(("a", "b"))] == 6
    assert g.w[frozenset(("b", "c"))] == 3
    assert g.d["a"] == (1, 2)
    assert g.d["b"] == (0, 1)
    assert g.d["c"] == (0, 0)


def test_encode_empty_dag():
    fam = TopologyFamily(("a",), (frozenset(),), (2,))
    g = encode(fam)
    assert g.w == {}
    assert g.d["a"] == (0,)


def test_encode_rejects_two_cycle():
    fam = TopologyFamily(("a", "b"), (frozenset({("a", "b"), ("b", "a")}),), (2,))
    with pytest.raises(CyclicInput):
        encode(fam)


@pytest.mark.parametrize("edges", [
    {("a", "a")},
    {("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("s", "t")},
    {("a", "b"), ("b", "a"), ("c", "d"), ("d", "e"), ("e", "c"), ("f", "a")},
], ids=["self-loop", "cycle below a source", "two disjoint cycles"])
def test_chain_lengths_refuses_every_cycle_and_encode_exits_3(tmp_path, capsys, edges):
    """A self-loop, a cycle reached only from a source, and two disjoint
    cycles each leave vertices that the Kahn walk never frees:
    ``chain_lengths`` raises CyclicInput, and `encode` exits 3 with one
    JSON error line and no graph."""
    vertices = sorted({v for edge in edges for v in edge})
    with pytest.raises(CyclicInput):
        chain_lengths(vertices, edges)
    family, graph = tmp_path / "family.json", tmp_path / "graph.json"
    family.write_text(json.dumps({"vertices": vertices,
                                  "topologies": [{"edges": sorted(map(list, edges))}]}))
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "CyclicInput"
    assert not graph.exists()


def test_encode_rejects_duplicate_primes():
    fam = TopologyFamily(("a", "b"), (frozenset(), frozenset()), (3, 3))
    with pytest.raises(DuplicatePrime):
        encode(fam)


def test_encode_rejects_composite_label():
    fam = TopologyFamily(("a",), (frozenset(),), (4,))
    with pytest.raises(NotPrime):
        encode(fam)


def test_decode_worked_example_roundtrip():
    fam = worked_family()
    recovered = decode(encode(fam), fam.primes)
    assert recovered.dags == fam.dags
    assert recovered.vertex_ids == fam.vertex_ids


def test_decode_unknown_prime_factor():
    g = WeightedMultiGraph(
        ("a", "b"),
        {frozenset(("a", "b")): 5},
        {"a": (0,), "b": (0,)},
    )
    with pytest.raises(UnknownPrimeFactor):
        decode(g, (2, 3))


def test_decode_ambiguous_orientation():
    g = WeightedMultiGraph(
        ("a", "b"),
        {frozenset(("a", "b")): 2},
        {"a": (1,), "b": (1,)},
    )
    with pytest.raises(AmbiguousOrientation):
        decode(g, (2,))


@pytest.mark.parametrize("unknown, ambiguous, expected", [
    (("a", "b"), ("b", "c"), UnknownPrimeFactor),
    (("b", "c"), ("a", "b"), AmbiguousOrientation),
], ids=["unknown_first", "ambiguous_first"])
def test_decode_raises_for_the_smallest_failing_edge_in_every_insertion_order(unknown, ambiguous,
                                                                              expected):
    """One edge has a factor outside the primes and another equal
    dimensions at both ends: decode raises the exception of the edge whose
    (str, str) ends sort first, with the same message whichever edge the
    graph lists first."""
    d = {"a": (0,), "b": (1,), "c": (1,)} if ambiguous == ("b", "c") else \
        {"a": (1,), "b": (1,), "c": (0,)}
    failures = {frozenset(unknown): 5, frozenset(ambiguous): 2}
    raised = []
    for edges in (list(failures), list(failures)[::-1]):
        g = WeightedMultiGraph(("a", "b", "c"), {e: failures[e] for e in edges}, d)
        with pytest.raises((UnknownPrimeFactor, AmbiguousOrientation)) as info:
            decode(g, (2,))
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is expected
    u, v = min(unknown, ambiguous)
    assert raised[0][1].startswith(f"edge {{{u!r},{v!r}}}")


def test_roundtrip_property_random_families():
    rng = np.random.default_rng(101)
    for _ in range(100):
        fam = random_family(rng)
        recovered = decode(encode(fam), fam.primes)
        assert recovered.dags == fam.dags
        assert recovered.vertex_ids == fam.vertex_ids
        assert recovered.primes == fam.primes


def test_encode_computes_each_topologys_chain_lengths_once(monkeypatch):
    """The cycle check of ``validate`` and the dimension vectors share one
    ``chain_lengths`` per topology."""
    import ultraheat.multitopo as multitopo

    calls = []
    original = multitopo.chain_lengths
    monkeypatch.setattr(multitopo, "chain_lengths",
                        lambda vertices, edges: calls.append(edges) or original(vertices, edges))
    fam = random_family(np.random.default_rng(19))
    g = encode(fam)
    assert calls == list(fam.dags)
    for i, dag in enumerate(fam.dags):
        lengths = original(fam.vertex_ids, dag)
        assert all(g.d[v][i] == lengths[v] for v in fam.vertex_ids)


def test_weights_are_squarefree_products_of_assigned_primes():
    rng = np.random.default_rng(17)
    for _ in range(30):
        fam = random_family(rng, max_vertices=15)
        g = encode(fam)
        for w in g.w.values():
            for p in fam.primes:
                assert w % (p * p) != 0
                while w % p == 0:
                    w //= p
            assert w == 1


def test_dimension_matches_path_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        labels = tuple(f"v{i}" for i in range(n))
        order = list(labels)
        rng.shuffle(order)
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    edges.add((order[i], order[j]))
        lengths = chain_lengths(labels, edges)
        for v in labels:
            assert lengths[v] == longest_path_by_enumeration(labels, edges, v)


def test_first_primes():
    assert first_primes(6) == (2, 3, 5, 7, 11, 13)


def test_is_prime_agrees_with_a_sieve_below_two_hundred_thousand():
    n = 200_000
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = False
    assert [is_prime(k) for k in range(n)] == sieve.tolist()
    assert not any(is_prime(k) for k in (-7, -2, -1, 0, 1))


# the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases (the
# last passes every base 2 .. 37), with their factors
STRONG_PSEUDOPRIMES = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
]


@pytest.mark.parametrize("k, factors", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_composite(k, factors):
    assert math.prod(factors) == k and all(is_prime(f) for f in factors)
    assert not is_prime(k)


def test_is_prime_decides_large_primes_fast_and_refuses_beyond_its_bound():
    start = time.perf_counter()
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and is_prime(2**31 - 1)
    assert not is_prime((2**61 - 1) * 1_000_003) and not is_prime(2**64 - 1)
    assert not is_prime(PRIME_BOUND - 1)
    assert time.perf_counter() - start < 1.0
    # the bound is the least composite that passes every base 2 .. 41
    assert PRIME_BOUND == 1287836182261 * 2575672364521
    for k in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="beyond the exact primality test"):
            is_prime(k)
    with pytest.raises(NotPrime, match="beyond the exact primality test"):
        encode(TopologyFamily(("a", "b"), [{("a", "b")}], (2**89 - 1,)))
