"""Edge columns: the graph and index readers, ``decode`` and ``index`` hold
a graph's edges as str-rank columns.  The readers check whole columns and
must refuse the same record with the same message as a reader that checks
one record at a time (kept here as the oracle); weights and dimensions
past int64 and past the float range keep their bytes; and the inputs that
used to end in a traceback or a long wait exit with their codes."""

import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultraheat import multitopo
from ultraheat.cli import main
from ultraheat.errors import DisconnectedGraph, ParseError
from ultraheat.multitopo import EdgeColumns, decode
from ultraheat.padic import embed
from ultraheat.serialize import canonical_dumps, graph_from_obj, index_from_obj
from ultraheat.ultraindex import graph_dendrogram

from test_cli import INDEX, assert_one_error_line, index_fixture, write


# --- the per-record oracles ----------------------------------------------------------


def graph_records_oracle(obj) -> dict:
    """The graph reader one record at a time: its {frozenset: weight} map,
    or the ParseError of the first record or check that fails."""
    try:
        vertices, records, dims = obj["vertices"], obj["edges"], obj["d"]
        primes = obj.get("primes") or []
        if not (type(vertices) is type(records) is type(primes) is list and type(dims) is dict):
            raise TypeError("vertices, edges and primes must be lists and d an object")
        d = {v: dims[v] for v in vertices}
        w = {}
        for rec in records:
            ends, weight = rec["ends"], rec["w"]
            if not (type(ends) is list and len(ends) == 2 and type(ends[0]) is str
                    and type(ends[1]) is str and ends[0] != ends[1]
                    and ends[0] in d and ends[1] in d):
                raise ParseError(f"malformed graph file: the ends {ends!r} are not two "
                                 "distinct listed vertices")
            if type(weight) is not int or weight < 1:
                raise ParseError(f"malformed graph file: the weight {weight!r} of {ends!r} "
                                 "is not an integer at least 1")
            w[frozenset(ends)] = weight
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph file: {exc}") from exc
    if len(d) != len(vertices):
        raise ParseError("malformed graph file: a vertex is listed twice")
    if len(w) != len(records):
        raise ParseError("malformed graph file: an edge is listed twice")
    return w


def as_float(wt) -> float:
    """A JSON number as a float, an int past the float range as infinite."""
    try:
        return float(wt)
    except OverflowError:
        return math.inf if wt > 0 else -math.inf


def index_records_oracle(obj) -> dict:
    """The index reader one edge at a time: the {frozenset: weight} map
    (an int past the float range read as infinite), or the ParseError of
    the first edge or check that fails."""
    try:
        vertices, edges, p, m = obj["vertices"], obj["edges"], obj["p"], obj["m"]
        if not (type(vertices) is list and all(type(v) is str for v in vertices)):
            raise ParseError("index vertices must be a list of strings")
        listed = set(vertices)
        if len(listed) != len(vertices):
            raise ParseError("index vertices list a vertex twice")
        if type(edges) is not list:
            raise ParseError("index edges must be a list")
        weights = {}
        for edge in edges:
            if not (type(edge) is list and len(edge) == 3 and edge[0] != edge[1]
                    and type(edge[0]) is type(edge[1]) is str
                    and edge[0] in listed and edge[1] in listed):
                raise ParseError(f"index edge {edge!r} is not [u, v, weight] with u and v "
                                 "two distinct listed vertices")
            u, v, wt = edge
            if type(wt) not in (int, float):
                raise ParseError(f"index weight {wt!r} of the edge {u!r}-{v!r} is not a JSON number")
            weights[frozenset((u, v))] = as_float(wt)
        if len(weights) != len(edges):
            raise ParseError("index edges name an edge twice")
        if type(p) is not int or type(m) is not int:
            raise ParseError(f"index p and m must be integers, got {p!r} and {m!r}")
        assign = embed(graph_dendrogram(tuple(vertices), weights), p)
    except (KeyError, TypeError, ValueError, DisconnectedGraph) as exc:
        raise ParseError(f"malformed index file: {exc}") from exc
    if tuple(vertices) != assign.labels:
        raise ParseError("index vertices are not sorted by str")
    if m != assign.m:
        raise ParseError(f"stored m={m} differs from the dendrogram's embedding (m={assign.m})")
    return weights


def outcome(read, obj):
    """("ok", map of the edges) or ("ParseError", message) of a reader."""
    try:
        got = read(obj)
    except ParseError as exc:
        return "ParseError", str(exc)
    return "ok", dict(got)


# --- mutated files: the column readers refuse what the oracles refuse -------------------


LABELS = [f"v{i}" for i in range(8)]  # v1 .. v7 hang off v0, v2 .. v7 off their predecessor too
PAIRS = [(0, i) for i in range(1, 8)] + [(i - 1, i) for i in range(2, 8)]


def graph_obj():
    return {"vertices": list(LABELS),
            "edges": [{"ends": [LABELS[i], LABELS[j]], "w": 2 + k} for k, (i, j) in enumerate(PAIRS)],
            "d": {v: [0] for v in LABELS}}


def index_obj():
    return {"version": 3, "vertices": list(LABELS), "p": 2, "m": 7,
            "edges": [[LABELS[i], LABELS[j], 1.0 / (2 + k)] for k, (i, j) in enumerate(PAIRS)]}


GRAPH_BREAKS = {
    "no_ends": lambda rec: rec.pop("ends"),
    "no_w": lambda rec: rec.pop("w"),
    "unlisted": lambda rec: rec["ends"].__setitem__(1, "zz"),
    "self_loop": lambda rec: rec["ends"].__setitem__(1, rec["ends"][0]),
    "one_end": lambda rec: rec["ends"].pop(),
    "int_end": lambda rec: rec["ends"].__setitem__(0, 0),
    "ends_text": lambda rec: rec.__setitem__("ends", "v0|v1"),
    "weight_0": lambda rec: rec.__setitem__("w", 0),
    "weight_text": lambda rec: rec.__setitem__("w", "2"),
    "weight_bool": lambda rec: rec.__setitem__("w", True),
    "weight_float": lambda rec: rec.__setitem__("w", 2.0),
    "weight_huge": lambda rec: rec.__setitem__("w", 10**400),
    "reversed_twice": lambda rec: None,  # the record is listed again, reversed
}

INDEX_BREAKS = {
    "pair": lambda edge: edge.pop(),
    "unlisted": lambda edge: edge.__setitem__(0, "zz"),
    "self_loop": lambda edge: edge.__setitem__(1, edge[0]),
    "int_end": lambda edge: edge.__setitem__(1, 7),
    "weight_text": lambda edge: edge.__setitem__(2, "0.5"),
    "weight_bool": lambda edge: edge.__setitem__(2, True),
    "weight_null": lambda edge: edge.__setitem__(2, None),
    "weight_0": lambda edge: edge.__setitem__(2, 0),
    "weight_negative": lambda edge: edge.__setitem__(2, -1),
    "weight_inf": lambda edge: edge.__setitem__(2, math.inf),
    "weight_huge": lambda edge: edge.__setitem__(2, 10**400),
    "weight_int": lambda edge: edge.__setitem__(2, 2),
    "reversed_twice": lambda edge: None,
}


def broken(obj, key, breaks, edits):
    """obj with each (position, break) of edits applied to its edge list."""
    records = obj[key]
    for position, name in edits:
        at = position % len(records)
        try:
            if name == "reversed_twice":
                again = json.loads(json.dumps(records[at]))
                ends = again["ends"] if isinstance(again, dict) else again
                ends[0], ends[1] = ends[1], ends[0]
                records.append(again)
            elif name == "record_null":
                records[at] = None
            else:
                breaks[name](records[at])
        except (AttributeError, IndexError, KeyError, TypeError):  # a record broken before
            pass
    return obj


def edits_of(breaks):
    return st.lists(st.tuples(st.integers(0, 40), st.sampled_from([*breaks, "record_null"])),
                    max_size=3)


@settings(max_examples=300, deadline=None)
@given(edits=edits_of(GRAPH_BREAKS), twice=st.booleans())
@example(edits=[(1, "weight_0"), (6, "unlisted")], twice=False)
@example(edits=[(6, "unlisted"), (1, "weight_0")], twice=False)
@example(edits=[(2, "weight_huge")], twice=True)
def test_the_graph_reader_refuses_the_first_failing_record_as_the_oracle_does(edits, twice):
    """Whatever the mix of broken records, the column reader raises the
    oracle's message, that of the record that fails first in file order,
    or reads the same edges."""
    obj = broken(graph_obj(), "edges", GRAPH_BREAKS, edits)
    if twice:
        obj["vertices"].append("v3")
    expected = outcome(graph_records_oracle, obj)
    got = outcome(lambda o: graph_from_obj(o)[0].w, obj)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(edits=edits_of(INDEX_BREAKS))
@example(edits=[(1, "weight_0"), (6, "unlisted")])
@example(edits=[(1, "weight_text"), (6, "self_loop")])
@example(edits=[(3, "weight_huge")])
def test_the_index_reader_refuses_the_first_failing_edge_as_the_oracle_does(edits):
    obj = broken(index_obj(), "edges", INDEX_BREAKS, edits)
    expected = outcome(index_records_oracle, obj)
    got = outcome(lambda o: index_from_obj(o)[1], obj)
    assert got == expected


@pytest.mark.parametrize("argv, obj, detail", [
    (["decode"], {"vertices": ["a", "b", "c"], "d": {"a": [0], "b": [0], "c": [0]},
                  "edges": [{"ends": ["a", "b"], "w": 0}, {"ends": ["b", "z"], "w": 2}]},
     "the weight 0 of ['a', 'b'] is not an integer at least 1"),
    (["index"], {"vertices": ["a", "b", "c"], "d": {"a": [0], "b": [0], "c": [0]},
                 "edges": [{"ends": ["a", "b"], "w": 2}, {"ends": ["b", "z"], "w": 0}]},
     "the ends ['b', 'z'] are not two distinct listed vertices"),
    (["spectrum", "--bullet", "ultrametric", "--level", "3"],
     {**INDEX, "edges": [["a", "b", "0.5"], ["b", "b", 0.7]]},
     "index weight '0.5' of the edge 'a'-'b' is not a JSON number"),
    (["spectrum", "--bullet", "ultrametric", "--level", "3"],
     {**INDEX, "edges": [["a", "b", 0.5], ["b", "b", "0.7"]]},
     "index edge ['b', 'b', '0.7'] is not [u, v, weight]"),
], ids=["graph_weight_first", "graph_ends_first", "index_weight_first", "index_ends_first"])
def test_an_early_bad_record_is_named_before_a_later_one(tmp_path, capsys, argv, obj, detail):
    path, out = tmp_path / "in.json", tmp_path / "out"
    write(path, obj)
    assert main([argv[0], "--input", str(path), "--output", str(out), *argv[1:]]) == 2
    err = assert_one_error_line(capsys, 2)
    assert err["error"] == "ParseError" and detail in err["detail"]
    assert not out.exists()


def test_the_readers_return_rank_columns():
    """Each reader's edges are ``EdgeColumns`` over the vertices in str
    order, in file order, lo < hi, with the weights of the file."""
    graph, _ = graph_from_obj(graph_obj())
    w = graph.w
    assert isinstance(w, EdgeColumns) and w.labels == tuple(sorted(LABELS))
    assert np.all(w.lo < w.hi) and w.weights == tuple(2 + k for k in range(len(PAIRS)))
    assert [(w.labels[i], w.labels[j]) for i, j in zip(w.lo.tolist(), w.hi.tolist())] == [
        tuple(sorted((LABELS[i], LABELS[j]))) for i, j in PAIRS]
    _, weights = index_from_obj(index_obj())
    assert isinstance(weights, EdgeColumns) and weights.weights.dtype == np.float64
    assert weights == {frozenset((LABELS[i], LABELS[j])): 1.0 / (2 + k)
                       for k, (i, j) in enumerate(PAIRS)}


# --- weights and dimensions past int64 and the float range ------------------------------


def wide_family():
    """Four vertices in 20 topologies with the 20 largest primes below 2^62:
    a-b is in all 20 (about 2^1240, past the float range), b-c in two
    (about 2^124, past 2^63), c-d and d-a in one each."""
    primes, k = [], 2**62 - 1
    while len(primes) < 20:
        if multitopo.is_prime(k):
            primes.append(k)
        k -= 2
    topologies = [{"edges": [["a", "b"]]} for _ in range(20)]
    topologies[0]["edges"].append(["b", "c"])
    topologies[1]["edges"].append(["b", "c"])
    topologies[2]["edges"].append(["c", "d"])
    topologies[3]["edges"].append(["d", "a"])
    return {"vertices": ["a", "b", "c", "d"], "topologies": topologies, "primes": primes}


def test_weights_past_int64_and_the_float_range_round_trip_with_pinned_bytes(tmp_path, capsys):
    family, graph, back, index = (tmp_path / name for name in ("f.json", "g.json", "b.json",
                                                               "i.json"))
    family.write_text(canonical_dumps(wide_family()), encoding="utf-8")
    for argv in (["encode", "--input", str(family), "--output", str(graph)],
                 ["decode", "--input", str(graph), "--output", str(back)],
                 ["index", "--input", str(graph), "--output", str(index)]):
        assert main(argv) == 0
    capsys.readouterr()
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (graph, back, index)]
    assert digests == ["6b7b8f601188dd78e85bec6981cc7ad0d617c8f954d5c6e221c62337d49cb231",
                       "d259dfb1b480422aa5ed84bd3c134c0d0567d6acc755b0eb88614126a9a1c716",
                       "b7227692d11b4f781fa627806e60263cbebebae6aec7ee7d9c4ad124e7d41959"]
    assert [e["w"].bit_length() for e in json.loads(graph.read_text())["edges"]] == [1240, 62, 124, 62]
    assert back.read_bytes() == family.read_bytes()


def test_dimension_vectors_past_int64_decode(tmp_path, capsys):
    """Dimensions compare as Python ints: past int64 they still orient
    each edge, and two equal ones are still an AmbiguousOrientation."""
    big = 2**70
    graph, back = tmp_path / "g.json", tmp_path / "b.json"
    obj = {"vertices": ["a", "b", "c"], "primes": [2, 3],
           "edges": [{"ends": ["a", "b"], "w": 2}, {"ends": ["b", "c"], "w": 6}],
           "d": {"a": [big, 0], "b": [big - 1, -big], "c": [-big, 2**64 + 5]}}
    write(graph, obj)
    assert main(["decode", "--input", str(graph), "--output", str(back)]) == 0
    capsys.readouterr()
    assert json.loads(back.read_text()) == {
        "vertices": ["a", "b", "c"], "primes": [2, 3],
        "topologies": [{"edges": [["a", "b"], ["b", "c"]]}, {"edges": [["c", "b"]]}]}
    g, _ = graph_from_obj({**obj, "d": {"a": [big, 0], "b": [big, 1], "c": [0, 0]}})
    with pytest.raises(multitopo.AmbiguousOrientation, match=f"both endpoints have dimension {big}"):
        decode(g, (2, 3))


# --- inputs that used to end in a traceback or a long wait -------------------------------


def huge_weight_index(tmp_path, digits: str):
    """The 3-vertex index with its a-b weight written as the given JSON number."""
    path = tmp_path / "huge.json"
    text = canonical_dumps(INDEX).replace("0.5138983423697507", digits)
    assert digits in text
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("argv", [
    ["spectrum", "--bullet", "ultrametric", "--level", "3"],
    ["heat", "--bullet", "ultrametric", "--level", "3", "--t", "0.5"],
    ["bounds", "--truncate", "1", "--level", "3"],
    ["converge", "--bullet", "ultrametric", "--levels", "3", "--reference", "3"],
])
def test_an_index_weight_past_the_float_range_is_a_parse_error(tmp_path, capsys, argv):
    """(a) An int weight of 10^400 reads as infinite, as 1e400 does, and is
    refused as not finite: exit 2, one JSON line, no artifact."""
    out = tmp_path / "out"
    for digits in ("1" + "0" * 400, "1e400"):
        index = huge_weight_index(tmp_path, digits)
        assert main([argv[0], "--input", str(index), "--output", str(out), *argv[1:]]) == 2
        err = assert_one_error_line(capsys, 2)
        assert err["detail"] == ("malformed index file: edge weight must be finite and positive, "
                                 "got inf on {'a', 'b'}")
        assert not out.exists()


def test_toposort_with_an_index_weight_past_the_float_range_exits_2(tmp_path, capsys):
    dag, out = tmp_path / "dag.json", tmp_path / "order.txt"
    write(dag, {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]})
    index = huge_weight_index(tmp_path, "1" + "0" * 400)
    assert main(["toposort", "--input", str(dag), "--output", str(out), "--index", str(index)]) == 2
    assert assert_one_error_line(capsys, 2)["error"] == "ParseError"
    assert not out.exists()


@pytest.mark.parametrize("digits", ["1" + "0" * 400, "-" + "1" + "0" * 400, "1e400"])
def test_a_dag_weight_past_the_float_range_exits_23(tmp_path, capsys, digits):
    """(b) A DAG weight of ±10^400 reads as ±inf, as 1e400 does: without an
    index it is a BadWeight (exit 23); with one, the weights are not read
    and the sort runs, as for 1e400."""
    dag, out = tmp_path / "dag.json", tmp_path / "order.txt"
    dag.write_text('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], '
                   f'"weights": {{"a|b": 0.5, "b|c": {digits}}}}}', encoding="utf-8")
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 23
    err = assert_one_error_line(capsys, 23)
    sign = "-" if digits.startswith("-") else ""
    assert err["detail"] == f"edge weight must be finite and positive, got {sign}inf on {{'b', 'c'}}"
    assert not out.exists()
    index = index_fixture(tmp_path)
    assert main(["toposort", "--input", str(dag), "--output", str(out), "--index", str(index)]) == 0
    assert out.read_text(encoding="utf-8") == "a\nb\nc\n"
    capsys.readouterr()


@pytest.fixture(scope="module")
def deep_path_index(tmp_path_factory):
    """A path of 1,100 vertices whose distance weights fall along it: one
    tree level per merge, p = 2 and m = 1,099, so p^m is past the float
    range."""
    graph, index = (tmp_path_factory.mktemp("deep") / name for name in ("g.json", "i.json"))
    labels = [f"v{i:04d}" for i in range(1100)]
    write(graph, {"vertices": labels, "d": {v: [0] for v in labels},
                  "edges": [{"ends": [labels[i], labels[i + 1]], "w": i + 1} for i in range(1099)]})
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    obj = json.loads(index.read_text(encoding="utf-8"))
    assert (obj["p"], obj["m"]) == (2, 1099)
    return index


@pytest.mark.parametrize("argv", [
    ["spectrum", "--bullet", "ultrametric", "--level", "1100"],
    ["heat", "--bullet", "graphdist", "--level", "1100", "--t", "0.5"],
    ["converge", "--bullet", "ultrametric", "--levels", "1100", "--reference", "1100"],
])
def test_nu_masses_past_the_float_range_exit_26(deep_path_index, tmp_path, capsys, argv):
    """(c) Under nu the disc shifts scale by p^m = 2^1099, which is inf in
    float64: with every warning an error, each run exits 26 (RateOverflow)
    with one JSON line and no artifact, as it does under Haar."""
    out = tmp_path / "out"
    capsys.readouterr()
    for measure in ("nu", "haar"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], "--input", str(deep_path_index), "--output", str(out),
                         *argv[1:], "--measure", measure]) == 26
        assert assert_one_error_line(capsys, 26)["error"] == "RateOverflow"
        assert not out.exists()


@pytest.fixture(scope="module")
def low_branching_index(tmp_path_factory):
    """The index of the committed low_branching_family(31, 60, 7): p = 3,
    m = 7, 60 vertices."""
    family = Path(__file__).with_name("low_branching_31_60_7.json")
    graph, index = (tmp_path_factory.mktemp("low") / name for name in ("g.json", "i.json"))
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    return index


@pytest.mark.parametrize("level, count", [
    ("13", "43740"),
    ("40", "about 10^17.5"),
    ("100000000", "about 10^47712123.9"),
    ("9999999999999999999", "about 10^4771212547196623872.0"),
])
def test_a_huge_level_exits_24_at_once(low_branching_index, tmp_path, capsys, level, count):
    """(d) The cell count is compared in logarithms before p^(n - m) is
    formed: even a level of 10^19 exits 24 within a second, and the count
    is stated as before."""
    out = tmp_path / "out"
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["spectrum", "--input", str(low_branching_index), "--output", str(out),
                 "--bullet", "ultrametric", "--level", level]) == 24
    assert time.perf_counter() - start < 1.0
    err = assert_one_error_line(capsys, 24)
    assert err["detail"] == (f"{count} cells exceed the dense-matrix limit of 10000; "
                             "choose a coarser level")
    assert not out.exists()
