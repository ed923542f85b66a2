"""Distances, subdominant ultrametric, dendrogram.

Oracles: a heap Dijkstra from every source for the graph distances;
minimax path distance by the all-intermediates dynamic program and, on
tiny instances, by enumerating every simple path.
"""

import heapq
import itertools
import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultraheat import (
    Dendrogram,
    DendrogramNode,
    DistanceMatrix,
    PAdicCell,
    UltrametricMatrix,
    build_dendrogram,
    embed,
    graph_dendrogram,
    graph_distances,
    minimal_cluster,
    subdominant_ultrametric,
    tree_measure,
)
from ultraheat import ultraindex
from ultraheat.errors import BadWeight, DisconnectedGraph
from ultraheat.multitopo import TopologyFamily, encode, first_primes
from ultraheat.serialize import canonical_dumps, family_from_obj, index_from_obj, index_to_obj
from ultraheat.ultraindex import _single_linkage

from conftest import random_connected_weights, random_dendrogram, random_metric


def minimax_dp(values: np.ndarray) -> np.ndarray:
    """Floyd-Warshall over intermediate vertices with (max, min) algebra."""
    out = values.copy()
    n = out.shape[0]
    for k in range(n):
        through = np.maximum.outer(out[:, k], out[k, :])
        out = np.minimum(out, through)
    return out


def minimax_paths_brute(values: np.ndarray) -> np.ndarray:
    """Enumerate all simple paths; only feasible for tiny n."""
    n = values.shape[0]
    out = np.full_like(values, np.inf)
    np.fill_diagonal(out, 0.0)
    for s in range(n):
        stack = [(s, frozenset([s]), 0.0)]
        while stack:
            node, seen, peak = stack.pop()
            for nxt in range(n):
                if nxt in seen:
                    continue
                new_peak = max(peak, values[node, nxt])
                if new_peak < out[s, nxt]:
                    out[s, nxt] = new_peak
                stack.append((nxt, seen | {nxt}, new_peak))
    return out


def dijkstra_oracle(labels, weights) -> np.ndarray:
    """All-pairs distances by a heap Dijkstra from every source over the
    labels sorted by str, symmetrised by the elementwise minimum."""
    labels = sorted(labels, key=str)
    pos = {v: i for i, v in enumerate(labels)}
    adj = [[] for _ in labels]
    for e, wt in weights.items():
        u, v = (pos[x] for x in e)
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    out = np.full((len(labels), len(labels)), np.inf)
    for s, dist in enumerate(out):
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du <= dist[u]:
                for v, wt in adj[u]:
                    if du + wt < dist[v]:
                        dist[v] = du + wt
                        heapq.heappush(heap, (du + wt, v))
    return np.minimum(out, out.T)


def family_graph(seed, n, topologies=5, density=0.02):
    """The distance weights of the encoded graph of ``topologies`` random
    DAGs over n vertices, each pair drawn with probability ``density``; the
    first DAG also holds a path through its order, so the graph is connected."""
    rng = np.random.default_rng(seed)
    labels = tuple(f"v{i:03d}" for i in range(n))
    dags = []
    for k in range(topologies):
        order = rng.permutation(n)
        mask = np.triu(rng.random((n, n)) < density, k=1)
        if k == 0:
            mask[np.arange(n - 1), np.arange(1, n)] = True
        dags.append(frozenset((labels[order[i]], labels[order[j]]) for i, j in np.argwhere(mask)))
    g = encode(TopologyFamily(labels, tuple(dags), first_primes(topologies)))
    return labels, ultraindex.default_distance_weights(g)


# Weights over about 1e-300 to 1e300: a graph draws its edge weights from a
# few of them, so ties are common and a path mixing magnitudes meets sums
# fl(a + w) = a; no path of these graphs reaches the largest float.
SPREAD_WEIGHTS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 300))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=st.sampled_from(["tree", "dense", "path"]), n=st.integers(1, 16),
       relax_slice=st.sampled_from([1, 5, ultraindex.RELAX_SLICE]))
def test_graph_distances_are_the_heap_dijkstra_bit_for_bit(data, shape, n, relax_slice):
    """The frontier relaxation gives the oracle's bits on trees, complete
    graphs and paths, whatever the weights' magnitudes, ties and absorbed
    sums, and whatever the slices (at 1 and 5 candidates, a vertex's arcs
    overrun a slice): both are the minimum over walks of the
    left-to-right float sum."""
    labels = [f"v{i}" for i in range(n)]  # v10 sorts before v2
    pool = data.draw(st.lists(SPREAD_WEIGHTS, min_size=1, max_size=5))
    if shape == "tree":
        pairs = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    elif shape == "dense":
        pairs = list(itertools.combinations(range(n), 2))
    else:
        pairs = list(zip(range(n), range(1, n)))
    weights = {frozenset((labels[i], labels[j])): data.draw(st.sampled_from(pool))
               for i, j in pairs}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ultraindex, "RELAX_SLICE", relax_slice)
        got = graph_distances(labels, weights).values
    assert np.array_equal(got.view(np.int64), dijkstra_oracle(labels, weights).view(np.int64))


def low_branching_graph():
    """The distance weights of the committed low_branching_family(31, 60, 7)
    file's graph: a 60-vertex tree."""
    obj = json.loads(Path(__file__).with_name("low_branching_31_60_7.json").read_text("utf-8"))
    g = encode(family_from_obj(obj))
    return g.vertices, ultraindex.default_distance_weights(g)


@pytest.mark.parametrize("graph", [lambda: family_graph(1, 200), low_branching_graph],
                         ids=["family_200", "low_branching_60"])
def test_graph_distances_of_family_graphs_are_the_heap_dijkstra_bit_for_bit(graph):
    labels, weights = graph()
    got = graph_distances(labels, weights).values
    assert np.array_equal(got.view(np.int64), dijkstra_oracle(labels, weights).view(np.int64))


def test_graph_distances_holds_no_array_of_n_times_e_entries():
    """On a 200-vertex family graph of 2,157 edges, the traced peak inside
    `graph_distances` stays within four n x n float arrays (the distances,
    the frontier's flat indices, the symmetrised copy, and room for the
    edge lists) and sixteen slice arrays: 2.3 MB, where one array of
    n * 2|E| candidates is 6.9 MB."""
    labels, weights = family_graph(1, 200)
    n, arcs = len(labels), 2 * len(weights)
    bound = 4 * n * n * 8 + 16 * ultraindex.RELAX_SLICE * 8
    assert n * arcs * 8 > 2.5 * bound
    tracemalloc.start()
    try:
        graph_distances(labels, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_graph_distances_path():
    d = graph_distances(
        ("a", "b", "c"), {frozenset(("a", "b")): 1.0, frozenset(("b", "c")): 2.0}
    )
    assert d.of("a", "b") == 1.0
    assert d.of("b", "c") == 2.0
    assert d.of("a", "c") == 3.0


def test_graph_distances_single_vertex():
    d = graph_distances(("a",), {})
    assert d.values.shape == (1, 1)
    assert d.values[0, 0] == 0.0


def test_graph_distances_triangle():
    w = {frozenset(p): 1.0 for p in itertools.combinations("abc", 2)}
    d = graph_distances(("a", "b", "c"), w)
    off = d.values[~np.eye(3, dtype=bool)]
    assert np.all(off == 1.0)


def test_graph_distances_disconnected():
    with pytest.raises(DisconnectedGraph):
        graph_distances(("a", "b"), {})


def test_an_overflowing_distance_is_not_a_disconnected_graph():
    """d(a, c) = 1e308 + 1.5e308 rounds to inf: BadWeight naming the pair,
    while a graph that is also disconnected stays DisconnectedGraph."""
    w = {frozenset(("a", "b")): 1e308, frozenset(("b", "c")): 1.5e308}
    with pytest.raises(BadWeight, match="from 'a' to 'c' overflows the largest float"):
        graph_distances(("c", "b", "a"), w)
    with pytest.raises(DisconnectedGraph):
        graph_distances(("a", "b", "c", "d"), w)
    assert graph_dendrogram(("a", "b", "c"), w).root.radius == 1.5e308


@pytest.mark.parametrize("build", [graph_distances, graph_dendrogram])
@pytest.mark.parametrize("key, named", [
    (frozenset(("c", "a")), "{'a', 'c'}"),
    (frozenset(("a",)), "{'a'}"),
    (frozenset(("a", "b", "c")), "{'a', 'b', 'c'}"),
])
def test_a_weight_key_that_names_no_edge_is_a_bad_weight(build, key, named):
    """A key naming an unlisted vertex, or not two vertices, is refused with
    its vertices in str order, not a bare KeyError or ValueError."""
    w = {frozenset(("a", "b")): 1.0, key: 2.0}
    with pytest.raises(BadWeight, match=re.escape(f"got {named}")):
        build(("a", "b"), w)


@pytest.mark.parametrize("wt", [float("nan"), float("inf"), 0.0, -1.0])
def test_graph_distances_rejects_bad_weights(wt):
    w = {frozenset(("a", "b")): 1.0, frozenset(("b", "c")): wt}
    with pytest.raises(BadWeight, match="finite and positive"):
        graph_distances(("a", "b", "c"), w)


def test_subdominant_path_example():
    d = graph_distances(
        ("a", "b", "c"), {frozenset(("a", "b")): 1.0, frozenset(("b", "c")): 2.0}
    )
    delta = subdominant_ultrametric(d)
    assert delta.of("a", "b") == 1.0
    assert delta.of("b", "c") == 2.0
    assert delta.of("a", "c") == 2.0


def test_subdominant_fixed_point_on_ultrametric():
    rng = np.random.default_rng(7)
    dend = random_dendrogram(rng, 12)
    delta = dend.delta_matrix()
    again = subdominant_ultrametric(delta)
    assert np.array_equal(again.values, delta.values)


def test_subdominant_trivial_metric():
    vals = np.full((5, 5), 2.5)
    np.fill_diagonal(vals, 0.0)
    delta = subdominant_ultrametric(DistanceMatrix(tuple("abcde"), vals))
    assert np.array_equal(delta.values, vals)


def test_subdominant_matches_dp_and_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        d = random_metric(rng, n)
        delta = subdominant_ultrametric(d)
        assert np.array_equal(delta.values, minimax_dp(d.values))
        assert np.array_equal(delta.values, minimax_paths_brute(d.values))


def test_subdominant_dominated_and_ultrametric():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = random_metric(rng, int(rng.integers(3, 9)))
        delta = subdominant_ultrametric(d)
        assert np.all(delta.values <= d.values)
        assert delta.check_ultrametric(tol=0.0)
        assert np.array_equal(delta.values, delta.values.T)


def test_subdominant_maximality_against_dominated_ultrametrics():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        d = random_metric(rng, n)
        delta = subdominant_ultrametric(d)
        other = random_dendrogram(rng, n).delta_matrix()
        # scale the random ultrametric under d entrywise
        mask = ~np.eye(n, dtype=bool)
        factor = np.min(d.values[mask] / other.values[mask])
        dominated = other.values * factor * 0.999
        assert np.all(dominated <= d.values)
        assert np.all(dominated <= delta.values + 1e-12)


def test_dendrogram_examples():
    vals = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    dend = build_dendrogram(UltrametricMatrix(("a", "b", "c"), vals))
    assert dend.root.members == frozenset("abc")
    assert dend.root.radius == 2.0
    kid_sets = {c.members for c in dend.root.children}
    assert frozenset(("a", "b")) in kid_sets
    assert minimal_cluster(dend, "a") == frozenset(("a", "b"))
    assert minimal_cluster(dend, "c") == frozenset(("a", "b", "c"))


def test_dendrogram_single_vertex():
    from ultraheat import DendrogramNode, Dendrogram

    dend = Dendrogram(DendrogramNode.leaf("x"))
    assert dend.root.is_leaf
    assert minimal_cluster(dend, "x") == frozenset(["x"])


def test_dendrogram_trivial_metric_is_polytomous():
    vals = np.full((4, 4), 3.0)
    np.fill_diagonal(vals, 0.0)
    dend = build_dendrogram(UltrametricMatrix(tuple("wxyz"), vals))
    assert len(dend.root.children) == 4
    assert all(c.is_leaf for c in dend.root.children)


def test_dendrogram_lca_reproduces_delta():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = random_metric(rng, int(rng.integers(3, 10)))
        delta = subdominant_ultrametric(d)
        dend = build_dendrogram(delta)
        for u in delta.labels:
            for v in delta.labels:
                if u != v:
                    assert dend.delta(u, v) == delta.of(u, v)


def test_dendrogram_radii_strictly_decrease():
    rng = np.random.default_rng(37)
    dend = build_dendrogram(subdominant_ultrametric(random_metric(rng, 12)))
    for node in dend.nodes:
        for child in node.children:
            assert child.radius < node.radius


def test_graph_distances_accepts_encoded_graph():
    from ultraheat import TopologyFamily, encode

    fam = TopologyFamily(
        ("a", "b", "c"),
        (frozenset({("a", "b")}), frozenset({("a", "b"), ("b", "c")})),
        (2, 3),
    )
    g = encode(fam)
    d = graph_distances(g)  # default weights 1/log(w+1)
    import math

    assert d.of("a", "b") == pytest.approx(1.0 / math.log(7.0))
    assert d.of("b", "c") == pytest.approx(1.0 / math.log(4.0))
    # the doubly-shared edge is shorter than the singly-shared one
    assert d.of("a", "b") < d.of("b", "c")


def test_graph_distance_metric_axioms():
    rng = np.random.default_rng(41)
    labels = tuple(f"v{i:02d}" for i in range(10))
    d = graph_distances(labels, random_connected_weights(rng, labels))
    assert d.check_metric(tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_index_persistence_roundtrip_and_determinism(data):
    """A version-3 index (vertices, distance-weighted edges, p and m) read
    back from its canonical text is the same embedding of the same tree:
    p, m, node depths, leaf discs, radii and delta; written again it is
    the same object.  Graphs: random connected ones, and paths of
    distinct weights falling along the path, one tree level per vertex."""
    import json

    n = data.draw(st.integers(1, 40), label="n")
    labels = tuple(f"v{i:02d}" for i in range(n))
    if data.draw(st.booleans(), label="deep chain"):
        weights = {frozenset(labels[i:i + 2]): 1.0 / (i + 2) for i in range(n - 1)}
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        weights = random_connected_weights(rng, labels)
    assign = embed(graph_dendrogram(labels, weights))
    obj = index_to_obj(assign, weights)
    assert set(obj) == {"version", "vertices", "edges", "p", "m"}
    assert obj["version"] == 3 and len(obj["edges"]) == len(weights)
    again, read_weights = index_from_obj(json.loads(canonical_dumps(obj)))
    assert read_weights == weights
    assert (again.p, again.m, again.depths) == (assign.p, assign.m, assign.depths)
    assert again.discs == assign.discs
    dend, back = assign.dendrogram, again.dendrogram
    assert [x.radius for x in back.nodes] == [x.radius for x in dend.nodes]
    assert np.array_equal(back.delta_matrix().values, dend.delta_matrix().values)
    assert index_to_obj(again, read_weights) == obj


def distinct_balls(delta: UltrametricMatrix) -> set:
    """Every closed ball {y : delta(x, y) <= r} with r a value in row x."""
    vals, labels = delta.values, delta.labels
    return {
        frozenset(labels[j] for j in np.flatnonzero(row <= r))
        for row in vals
        for r in np.unique(row)
    }


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_single_linkage_index_matches_oracles(data):
    """Random float metrics and integer-valued ones, whose many ties make
    equal-height merges: exact minimax values, the distinct balls as the
    nodes, and the tree's ultrametric given back bit for bit."""
    n = data.draw(st.integers(1, 24), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    if data.draw(st.booleans(), label="integer valued"):
        k = data.draw(st.integers(1, 4), label="k")
        vals = rng.integers(k, 2 * k, size=(n, n))  # in [k, 2k): a metric
        vals = np.minimum(vals, vals.T).astype(float)
        np.fill_diagonal(vals, 0.0)
        d = DistanceMatrix(tuple(f"v{i:03d}" for i in range(n)), vals)
    else:
        d = random_metric(rng, n)
    delta = subdominant_ultrametric(d)
    assert np.array_equal(delta.values, minimax_dp(d.values))
    dend = build_dendrogram(delta)
    balls = distinct_balls(delta)
    assert {node.members for node in dend.nodes} == balls
    assert len(dend.nodes) == len(balls)
    assert np.array_equal(dend.delta_matrix().values, delta.values)


def test_build_dendrogram_keeps_its_errors():
    with pytest.raises(ValueError, match="single root"):
        build_dendrogram(UltrametricMatrix((), np.zeros((0, 0))))
    vals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="distance 0"):
        build_dendrogram(UltrametricMatrix(tuple("abc"), vals))


def test_deep_chain_needs_no_recursion():
    """A caterpillar of 1500 leaves is 1499 levels deep, past Python's
    recursion limit: the tree walks, the embedding, the measure and the
    ultrametric matrix all run on explicit stacks or the node list."""
    n = 1500
    labels = tuple(f"v{i:04d}" for i in range(n))
    node = DendrogramNode.leaf(labels[0])
    for i in range(1, n):
        node = DendrogramNode(float(i), (node, DendrogramNode.leaf(labels[i])))
    dend = Dendrogram(node)
    assert dend.max_level == n - 1
    assert [x.level for x in dend.nodes[:4]] == [0, 1, 2, 3]
    assert dend.order == labels
    assign = embed(dend)
    assert (assign.p, assign.m) == (2, n - 1)
    assert tree_measure(dend).leaf_mass(labels[0]) * 2 ** (n - 1) == 1
    idx = np.arange(n)
    chain = np.maximum.outer(idx, idx).astype(float)
    np.fill_diagonal(chain, 0.0)
    delta = dend.delta_matrix()
    assert np.array_equal(delta.values, chain)
    rebuilt = build_dendrogram(delta)
    assert rebuilt.order == dend.order
    assert [(x.start, x.stop, x.radius) for x in rebuilt.nodes] == [
        (x.start, x.stop, x.radius) for x in dend.nodes
    ]


def test_nodes_are_ranges_of_one_leaf_order():
    """Preorder with children sorted by their str-smallest label: the root
    over {a, z} and m lists a, z, m, and every node's members are its range."""
    a, z, m = (DendrogramNode.leaf(x) for x in "azm")
    inner = DendrogramNode(1.0, (z, a))
    dend = Dendrogram(DendrogramNode(2.0, (m, inner)))
    assert dend.order == ("a", "z", "m")
    assert dend.labels == ("a", "m", "z")
    assert dend.nodes == (dend.root, inner, a, z, m)
    assert [x.index for x in dend.nodes] == [0, 1, 2, 3, 4]
    assert [(x.start, x.stop) for x in dend.nodes] == [(0, 3), (0, 2), (0, 1), (1, 2), (2, 3)]
    assert inner.members == frozenset("az") and inner.members is inner.members
    assert dend.root.members == frozenset("azm")
    with pytest.raises(ValueError, match="single label"):
        inner.label


def test_dendrogram_validation():
    leaf = DendrogramNode.leaf
    with pytest.raises(ValueError, match="at least two children"):
        DendrogramNode(1.0, (leaf("a"),))
    with pytest.raises(ValueError, match="strictly decrease"):
        Dendrogram(DendrogramNode(1.0, (DendrogramNode(1.0, (leaf("a"), leaf("b"))), leaf("c"))))
    shared = leaf("a")
    with pytest.raises(ValueError, match="appears twice"):
        Dendrogram(DendrogramNode(2.0, (
            DendrogramNode(1.0, (shared, leaf("b"))),
            DendrogramNode(1.0, (shared, leaf("c"))),
        )))
    with pytest.raises(ValueError, match="two leaves"):
        Dendrogram(DendrogramNode(1.0, (leaf("a"), leaf("a"))))


def test_a_node_of_another_tree_is_refused():
    one = Dendrogram(DendrogramNode(1.0, (DendrogramNode.leaf("a"), DendrogramNode.leaf("b"))))
    other = Dendrogram(DendrogramNode(1.0, (DendrogramNode.leaf("a"), DendrogramNode.leaf("b"))))
    assign = embed(one)
    assert assign.cell_of(one.root) == PAdicCell(2, ())
    for node in other.nodes:
        with pytest.raises(KeyError):
            assign.cell_of(node)
        with pytest.raises(KeyError):
            assign.nu.of(node)


def test_graph_dendrogram_scales_to_ten_thousand_vertices():
    """10^4 vertices, 5 * 10^4 edges of distinct weights: the tree is
    thousands of levels deep, and no node copies its members."""
    rng = np.random.default_rng(2024)
    n, m = 10_000, 50_000
    labels = tuple(f"v{i:05d}" for i in range(n))
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}  # a random spanning tree
    while len(pairs) < m:
        i, j = sorted(rng.integers(n, size=2).tolist())
        if i != j:
            pairs.add((i, j))
    weights = {frozenset((labels[i], labels[j])): float(w)
               for (i, j), w in zip(sorted(pairs), rng.permutation(m) + 1)}
    start = time.perf_counter()
    dend = graph_dendrogram(labels, weights)
    assert time.perf_counter() - start < 5.0
    assert sorted(dend.order) == list(labels) and dend.max_level > 100
    for node in dend.nodes:
        if node.is_leaf:
            assert (node.stop - node.start, dend.order[node.start]) == (1, node.label)
            continue
        kids = node.children
        assert kids[0].start == node.start and kids[-1].stop == node.stop
        assert all(x.stop == y.start for x, y in zip(kids, kids[1:]))
        assert all(x.radius < node.radius for x in kids)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_graph_dendrogram_matches_the_dense_route(data):
    """Single linkage over the graph's own edges gives the dense route's
    tree: the same nodes in the same order, the same radii and the same
    ultrametric matrix, bit for bit, on float and tied integer weights."""
    n = data.draw(st.integers(1, 24), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    labels = tuple(f"v{i:03d}" for i in range(n))
    weights = random_connected_weights(rng, labels)
    if data.draw(st.booleans(), label="integer weights"):
        k = data.draw(st.integers(1, 3), label="k")
        weights = {e: float(rng.integers(1, k + 1)) for e in weights}
    dend = graph_dendrogram(labels, weights)
    dense = build_dendrogram(subdominant_ultrametric(graph_distances(labels, weights)))
    assert dend.labels == dense.labels
    assert [(x.members, x.radius) for x in dend.nodes] == [
        (x.members, x.radius) for x in dense.nodes
    ]
    assert np.array_equal(dend.delta_matrix().values, dense.delta_matrix().values)


def test_graph_dendrogram_takes_an_encoded_graph():
    from ultraheat import TopologyFamily, encode

    fam = TopologyFamily(
        ("a", "b", "c"),
        (frozenset({("a", "b")}), frozenset({("a", "b"), ("b", "c")})),
        (2, 3),
    )
    g = encode(fam)
    dend = graph_dendrogram(g)  # default weights 1/log(w+1)
    dense = build_dendrogram(subdominant_ultrametric(graph_distances(g)))
    assert [(x.members, x.radius) for x in dend.nodes] == [
        (x.members, x.radius) for x in dense.nodes
    ]
    assert minimal_cluster(dend, "a") == frozenset("ab")


@pytest.mark.parametrize("wt", [float("nan"), float("inf"), 0.0, -1.0])
def test_graph_dendrogram_rejects_bad_weights(wt):
    w = {frozenset(("a", "b")): 1.0, frozenset(("b", "c")): wt}
    with pytest.raises(BadWeight, match="finite and positive"):
        graph_dendrogram(("a", "b", "c"), w)


def test_graph_dendrogram_rejects_a_disconnected_graph():
    with pytest.raises(DisconnectedGraph):
        graph_dendrogram(("a", "b"), {})
    w = {frozenset(("a", "b")): 1.0, frozenset(("c", "d")): 2.0}
    with pytest.raises(DisconnectedGraph):
        graph_dendrogram(tuple("abcd"), w)
    single = graph_dendrogram(("a",), {})
    assert single.root.is_leaf and single.labels == ("a",)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       density=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
def test_joined_tree_has_the_reachable_sets_as_root_children(seed, n, density):
    """The index ``toposort`` builds without --index: the weights joined by
    ``cli._join_components``.  A graph that falls apart gets its reachable
    sets as the root's children; a connected graph keeps the tree of its
    own weights, node for node."""
    from ultraheat.cli import _join_components

    rng = np.random.default_rng(seed)
    labels = [f"v{i}" for i in range(n)]  # v10 sorts before v2 by str
    weights = {frozenset((u, v)): float(rng.integers(1, 4))  # ties: polytomous merges
               for u, v in itertools.combinations(labels, 2) if rng.random() < density}
    dend = graph_dendrogram(labels, _join_components(tuple(sorted(labels, key=str)), weights))
    reach = {v: {v} for v in labels}
    for _ in labels:  # grow every set to the vertices within |V| steps
        for e in weights:
            u, v = tuple(e)
            reach[u] = reach[v] = reach[u] | reach[v]
    components = {frozenset(r) for r in reach.values()}
    if len(components) == 1:
        alone = graph_dendrogram(labels, weights)
        assert dend.order == alone.order
        assert [(x.start, x.stop, x.radius) for x in dend.nodes] == [
            (x.start, x.stop, x.radius) for x in alone.nodes]
    else:
        assert {child.members for child in dend.root.children} == components
        assert dend.root.radius == math.nextafter(max(weights.values(), default=1.0), math.inf)
        with pytest.raises(DisconnectedGraph):
            graph_dendrogram(labels, weights)


def test_single_linkage_yields_the_merges_only():
    """One (height, keep, gone) triple per merge: the larger cluster's root
    is kept, the first end's on a tie, and an edge inside one cluster
    yields nothing."""
    edges = [(1.0, 0, 1), (2.0, 1, 2), (2.0, 0, 2), (3.0, 3, 2)]
    assert list(_single_linkage(4, edges)) == [(1.0, 0, 1), (2.0, 0, 2), (3.0, 0, 3)]
