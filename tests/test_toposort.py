"""Cluster sorting, merging, and the parallel pipeline.

Validity oracle: every DAG edge must point forward in the output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultraheat import (
    Dag,
    build_dendrogram,
    kahn_sort,
    merge_sorted_clusters,
    minimal_cluster,
    parallel_toposort,
    UltrametricMatrix,
)
from ultraheat import multitopo, toposort
from ultraheat.errors import CycleDetected

from conftest import random_dag, random_dendrogram


def is_linear_extension(dag: Dag, order) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    return set(order) == set(dag.vertices) and all(
        pos[u] < pos[v] for u, v in dag.edges
    )


def three_ball_dendrogram():
    vals = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    return build_dendrogram(UltrametricMatrix(("a", "b", "c"), vals))


def test_kahn_diamond():
    dag = Dag(("a", "b", "c", "d"), {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")})
    assert kahn_sort(dag) == ("a", "b", "c", "d")


def test_kahn_ties_lexicographic():
    dag = Dag(("b", "a"), frozenset())
    assert kahn_sort(dag) == ("a", "b")


def test_kahn_ties_follow_str_order_for_any_label_type():
    assert kahn_sort(Dag((2, 10), frozenset())) == (10, 2)
    dag = Dag((1, "a", 2), {(1, 2), ("a", 2)})
    assert kahn_sort(dag) == (1, "a", 2)
    vals = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    dend = build_dendrogram(UltrametricMatrix((1, "a", 2), vals))
    assert parallel_toposort(dag, dend, [1, 2]) == (1, "a", 2)


def test_kahn_cycle():
    with pytest.raises(CycleDetected):
        kahn_sort(Dag(("a", "b"), {("a", "b"), ("b", "a")}))


def test_cluster_sort_examples():
    """The smallest non-singleton ball around a vertex, and the
    (-height, rank) order that ``parallel_toposort`` takes of it."""
    dend = three_ball_dendrogram()
    dag = Dag(("a", "b", "c"), {("b", "a")})
    assert minimal_cluster(dend, "b") == frozenset(("a", "b"))
    assert dag.heights == (0, 1, 0)
    assert parallel_toposort(dag, dend, ["b"]) == ("b", "a", "c")
    assert minimal_cluster(dend, "c") == frozenset(("a", "b", "c"))


def test_cluster_sort_trivial_index_covers_everything():
    vals = np.full((3, 3), 1.0)
    np.fill_diagonal(vals, 0.0)
    trivial = build_dendrogram(UltrametricMatrix(("a", "b", "c"), vals))
    dag = Dag(("a", "b", "c"), {("c", "a")})
    assert minimal_cluster(trivial, "a") == frozenset(("a", "b", "c"))
    assert kahn_sort(dag) == ("b", "c", "a")
    assert parallel_toposort(dag, trivial, ["a"]) == ("c", "a", "b")


def test_merge_with_cross_edge():
    dag = Dag(("a", "b", "c"), {("c", "a")})
    left = ("a", "b")
    right = ("c",)
    merged = merge_sorted_clusters(dag, left, right)
    assert merged == ("c", "a", "b")


def test_merge_disjoint_no_cross_edges_interleaves_by_label():
    dag = Dag(("a", "b", "c", "d"), frozenset())
    left = ("b", "d")
    right = ("a", "c")
    merged = merge_sorted_clusters(dag, left, right)
    assert merged == ("a", "b", "c", "d")


def test_merge_conflicting_chains_raises():
    dag = Dag(("a", "b", "c"), {("b", "c")})
    left = ("c", "a")
    right = ("a", "b")
    with pytest.raises(CycleDetected):
        merge_sorted_clusters(dag, left, right)


def sub_dag(dag: Dag, members) -> Dag:
    """The DAG induced on ``members``."""
    members = set(members)
    return Dag(tuple(members), {(u, v) for u, v in dag.edges if u in members and v in members})


def test_merge_refines_both_input_orders():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dag = random_dag(rng, 12, density=0.25)
        verts = sorted(dag.vertices)
        sl, sr = (kahn_sort(sub_dag(dag, half)) for half in (verts[:6], verts[6:]))
        try:
            merged = merge_sorted_clusters(dag, sl, sr)
        except CycleDetected:
            continue
        pos = {v: i for i, v in enumerate(merged)}
        for sc in (sl, sr):
            for u, v in zip(sc, sc[1:]):
                assert pos[u] < pos[v]
        assert frozenset(merged) == frozenset(dag.vertices)
        for u, v in dag.edges:
            assert pos[u] < pos[v]


def test_parallel_example():
    dend = three_ball_dendrogram()
    dag = Dag(("a", "b", "c"), {("a", "b"), ("b", "c")})
    assert parallel_toposort(dag, dend, ["a", "c"]) == ("a", "b", "c")


def test_parallel_no_edges_gives_lexicographic():
    rng = np.random.default_rng(11)
    dend = random_dendrogram(rng, 8)
    dag = Dag(tuple(dend.labels), frozenset())
    assert parallel_toposort(dag, dend, list(dend.labels[:3])) == tuple(sorted(dend.labels))


def test_parallel_validity_random():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(5, 40))
        dag = random_dag(rng, n, density=0.25)
        dend = random_dendrogram(rng, n)
        n_seeds = int(rng.integers(1, 6))
        seeds = list(rng.choice(dag.vertices, size=n_seeds, replace=False))
        order = parallel_toposort(dag, dend, seeds)
        assert is_linear_extension(dag, order)


def test_parallel_makes_one_merge_and_no_kahn_sort(monkeypatch):
    def unreachable(*args):
        raise AssertionError("kahn_sort called")

    merges, merge = [], toposort.merge_sorted_clusters
    monkeypatch.setattr(toposort, "kahn_sort", unreachable)
    monkeypatch.setattr(toposort, "merge_sorted_clusters",
                        lambda *args: merges.append(args) or merge(*args))
    rng = np.random.default_rng(29)
    for k in range(1, 21):
        dag = random_dag(rng, 30, density=0.3)
        seeds = list(rng.choice(dag.vertices, size=5, replace=False))
        assert is_linear_extension(dag, parallel_toposort(dag, random_dendrogram(rng, 30), seeds))
        assert len(merges) == k


def test_parallel_deterministic_across_parallelism():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(10, 60))
        dag = random_dag(rng, n, density=0.2)
        dend = random_dendrogram(rng, n)
        seeds = list(rng.choice(dag.vertices, size=4, replace=False))
        runs = {k: parallel_toposort(dag, dend, seeds, parallelism=k) for k in (1, 4, 16)}
        assert runs[1] == runs[4] == runs[16]


def test_parallel_trivial_index_gives_the_height_order():
    """One cluster holds every vertex, so the output is the DAG's global
    (-height, rank) order."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        dag = random_dag(rng, n, density=0.3)
        vals = np.full((n, n), 1.0)
        np.fill_diagonal(vals, 0.0)
        dend = build_dendrogram(UltrametricMatrix(dag.vertices, vals))
        seeds = [dag.vertices[0]]
        by_height = sorted(dag.vertices, key=lambda v: (-dag.heights[dag.rank[v]], v))
        assert parallel_toposort(dag, dend, seeds) == tuple(by_height)


def test_seed_clusters_keep_their_order_where_kahn_ties_would_conflict():
    """a -> c and d -> a over the index ((a, b), (c, d)): sorted by rank,
    the clusters' orders a b and c d close a cycle through d -> a; sorted
    by (-height, rank) they are a b and d c, and the merge keeps both."""
    vals = np.array([[0.0, 1.0, 2.0, 2.0], [1.0, 0.0, 2.0, 2.0],
                     [2.0, 2.0, 0.0, 1.0], [2.0, 2.0, 1.0, 0.0]])
    dend = build_dendrogram(UltrametricMatrix(("a", "b", "c", "d"), vals))
    dag = Dag(("a", "b", "c", "d"), {("a", "c"), ("d", "a")})
    assert dag.heights == (1, 0, 0, 2)
    assert parallel_toposort(dag, dend, ["a", "c"]) == ("d", "a", "b", "c")


def reference_heights(dag: Dag):
    """Longest directed chain (edge count) from each vertex, by relaxing
    every edge until nothing changes; None when n rounds do not settle
    (a cycle)."""
    height = {v: 0 for v in dag.vertices}
    for _ in range(len(height) + 1):
        changed = False
        for u, v in dag.edges:
            if height[u] < height[v] + 1:
                height[u], changed = height[v] + 1, True
        if not changed:
            return height
    return None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_heights_are_the_longest_chains_and_computed_once(data):
    n = data.draw(st.integers(1, 30), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    dag = random_dag(rng, n, density=data.draw(st.floats(0.0, 0.5), label="density"))
    if dag.edges and data.draw(st.booleans(), label="close a cycle"):
        u, v = min(dag.edges)
        dag = Dag(dag.vertices, dag.edges | {(v, u)})
    walks, walk = [], multitopo._kahn
    with pytest.MonkeyPatch.context() as m:
        m.setattr(multitopo, "_kahn", lambda *args: walks.append(args) or walk(*args))
        expected = reference_heights(dag)
        if expected is None:
            for _ in range(2):  # a failed walk is not cached
                with pytest.raises(CycleDetected):
                    dag.heights
            assert len(walks) == 2
            return
        assert dag.heights == tuple(expected[v] for v in dag.str_order)
        assert dag.heights is dag.heights
    assert len(walks) == 1


def test_parallel_propagates_cycles():
    rng = np.random.default_rng(23)
    dend = random_dendrogram(rng, 6)
    verts = dend.labels
    edges = {(verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])}
    dag = Dag(verts, edges)
    with pytest.raises(CycleDetected):
        parallel_toposort(dag, dend, [verts[0], verts[3]])


def is_subsequence(sub, order) -> bool:
    it = iter(order)
    return all(v in it for v in sub)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parallel_contract(data):
    n = data.draw(st.integers(2, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    dend = random_dendrogram(rng, n)
    dag = random_dag(rng, n, density=data.draw(st.floats(0.0, 0.4), label="density"))
    picks = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True), label="seeds"
    )
    seeds = [dag.vertices[i] for i in picks]

    order = parallel_toposort(dag, dend, seeds, parallelism=1)
    assert is_linear_extension(dag, order)
    assert parallel_toposort(dag, dend, seeds, parallelism=4) == order

    height = reference_heights(dag)
    for x in seeds:
        cluster = sorted(minimal_cluster(dend, x), key=lambda v: (-height[v], v))
        assert is_subsequence(cluster, order)


def reference_kahn(vertices, edges):
    """Kahn's algorithm written plainly: repeatedly emit the smallest label
    under ``str`` whose predecessors are all emitted; None on a cycle."""
    preds = {v: set() for v in vertices}
    for u, v in edges:
        preds[v].add(u)
    out, done = [], set()
    while len(out) < len(preds):
        ready = [v for v in preds if v not in done and preds[v] <= done]
        if not ready:
            return None
        v = min(ready, key=str)
        out.append(v)
        done.add(v)
    return tuple(out)


def reference_toposort(dag: Dag, dend, seeds):
    """Each seed cluster sorted by decreasing longest chain, ties by label,
    then the whole DAG under its edges plus every cluster chain (None
    when the DAG has a cycle)."""
    height = reference_heights(dag)
    if height is None:
        return None
    chains = set()
    for members in {minimal_cluster(dend, x) for x in seeds}:
        order = sorted(members, key=lambda v: (-height[v], v))
        chains.update(zip(order, order[1:]))
    return reference_kahn(dag.vertices, dag.edges | chains)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parallel_toposort_equals_the_reference_sort(data):
    """Element for element, with and without a cycle in the DAG, and
    unchanged by the passes run on the same Dag in between: a failing
    merge and full sorts."""
    n = data.draw(st.integers(2, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    dend = random_dendrogram(rng, n)
    dag = random_dag(rng, n, density=data.draw(st.floats(0.0, 0.4), label="density"))
    if dag.edges and data.draw(st.booleans(), label="close a cycle"):
        u, v = min(dag.edges)
        dag = Dag(dag.vertices, dag.edges | {(v, u)})
    picks = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True), label="seeds"
    )
    seeds = [dag.vertices[i] for i in picks]

    expected = reference_toposort(dag, dend, seeds)
    if expected is None:
        with pytest.raises(CycleDetected):
            parallel_toposort(dag, dend, seeds)
        with pytest.raises(CycleDetected):
            kahn_sort(dag)
        return
    order = parallel_toposort(dag, dend, seeds)
    assert order == expected
    full = kahn_sort(dag)
    assert full == reference_kahn(dag.vertices, dag.edges)
    if dag.edges:
        u, v = min(dag.edges)
        with pytest.raises(CycleDetected):
            merge_sorted_clusters(dag, (v, u))
    assert parallel_toposort(dag, dend, seeds, parallelism=2) == order
    assert kahn_sort(dag) == full
    assert parallel_toposort(dag, dend, seeds) == order


def test_a_repeated_vertex_is_a_value_error():
    with pytest.raises(ValueError, match="listed more than once"):
        Dag(("a", "a", "b"), {("a", "b")})
    with pytest.raises(ValueError, match="leaves the vertex set"):
        Dag(("a", "b"), {("a", "c")})
