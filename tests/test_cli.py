"""End-to-end CLI behaviour: schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ultraheat import heat, multitopo, spectra, toposort
from ultraheat.cli import EXIT_CODES, main
from ultraheat.serialize import canonical_dumps, expand_heat

from conftest import LOW_BRANCHING_FAMILY


FAMILY = {
    "vertices": ["a", "b", "c"],
    "topologies": [
        {"edges": [["a", "b"]]},
        {"edges": [["a", "b"], ["b", "c"]]},
    ],
    "primes": [2, 3],
}

GRAPH = {  # FAMILY encoded, with its primes
    "vertices": ["a", "b", "c"],
    "edges": [{"ends": ["a", "b"], "w": 6}, {"ends": ["b", "c"], "w": 3}],
    "d": {"a": [1, 2], "b": [0, 1], "c": [0, 0]},
    "primes": [2, 3],
}

INDEX = {  # GRAPH indexed
    "version": 3,
    "vertices": ["a", "b", "c"],
    "edges": [["a", "b", 0.5138983423697507], ["b", "c", 0.7213475204444817]],
    "p": 2,
    "m": 2,
}

THREE_LEAF_DAG = {
    "vertices": ["a", "b", "c"],
    "edges": [["a", "b"], ["b", "c"]],
    "weights": {"a|b": 0.5, "b|c": 2.0, "a|c": 2.0},
}

INTEGER_DAG = {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]], "weights": {"1|2": 0.5}}


def write(path, obj):
    path.write_text(canonical_dumps(obj), encoding="utf-8")


def parse_summaries(text):
    decoder = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return docs
        obj, i = decoder.raw_decode(text, i)
        docs.append(obj)


def graph_fixture(tmp_path):
    fam = tmp_path / "family.json"
    graph = tmp_path / "graph.json"
    write(fam, FAMILY)
    assert main(["encode", "--input", str(fam), "--output", str(graph)]) == 0
    return fam, graph


def index_fixture(tmp_path):
    _, graph = graph_fixture(tmp_path)
    index = tmp_path / "index.json"
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    return index


def test_encode_decode_roundtrip_byte_for_byte(tmp_path, capsys):
    fam, graph = graph_fixture(tmp_path)
    back = tmp_path / "family_back.json"
    assert main(["decode", "--input", str(graph), "--output", str(back)]) == 0
    assert back.read_bytes() == fam.read_bytes()
    capsys.readouterr()


def test_encode_worked_example_contents(tmp_path, capsys):
    _, graph = graph_fixture(tmp_path)
    obj = json.loads(graph.read_text())
    weights = {tuple(rec["ends"]): rec["w"] for rec in obj["edges"]}
    assert weights == {("a", "b"): 6, ("b", "c"): 3}
    assert obj["d"] == {"a": [1, 2], "b": [0, 1], "c": [0, 0]}
    capsys.readouterr()


def test_encode_is_deterministic(tmp_path, capsys):
    fam = tmp_path / "family.json"
    write(fam, FAMILY)
    out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
    main(["encode", "--input", str(fam), "--output", str(out1)])
    main(["encode", "--input", str(fam), "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    docs = parse_summaries(capsys.readouterr().out)
    assert docs[-2]["artifacts"][0]["sha256"] == docs[-1]["artifacts"][0]["sha256"]


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["encode", "--input", str(bad), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err


def test_cyclic_input_distinct_exit_code(tmp_path, capsys):
    fam = tmp_path / "family.json"
    write(fam, {
        "vertices": ["a", "b"],
        "topologies": [{"edges": [["a", "b"], ["b", "a"]]}],
        "primes": [2],
    })
    out = tmp_path / "out.json"
    assert main(["encode", "--input", str(fam), "--output", str(out)]) == 3
    assert "CyclicInput" in capsys.readouterr().err


def test_unknown_prime_exit_code(tmp_path, capsys):
    _, graph = graph_fixture(tmp_path)
    obj = json.loads(graph.read_text())
    obj["edges"][0]["w"] = 35
    write(graph, obj)
    out = tmp_path / "out.json"
    assert main(["decode", "--input", str(graph), "--output", str(out)]) == 5
    assert "UnknownPrimeFactor" in capsys.readouterr().err


def test_index_subcommand(tmp_path, capsys):
    index = index_fixture(tmp_path)
    obj = json.loads(index.read_text())
    assert set(obj) == {"version", "vertices", "edges", "p", "m"}
    assert obj["version"] == 3
    assert [e[:2] for e in obj["edges"]] == [["a", "b"], ["b", "c"]]
    assert (obj["p"], obj["m"]) == (2, 2)
    capsys.readouterr()


def test_toposort_subcommand(tmp_path, capsys):
    dag = tmp_path / "dag.json"
    write(dag, THREE_LEAF_DAG)
    out = tmp_path / "order.txt"
    code = main([
        "toposort", "--input", str(dag), "--output", str(out),
        "--seeds", "a,c", "--parallelism", "4",
    ])
    assert code == 0
    order = out.read_text().split()
    assert order.index("a") < order.index("b") < order.index("c")
    summary = parse_summaries(capsys.readouterr().out)[-1]
    assert summary["metrics"]["valid_linear_extension"] is True


def test_toposort_cycle_exit_code(tmp_path, capsys):
    dag = tmp_path / "dag.json"
    write(dag, {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]})
    out = tmp_path / "order.txt"
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 8
    assert "CycleDetected" in capsys.readouterr().err


@pytest.mark.parametrize("dag_obj, detail", [
    ({"vertices": ["a", "b"], "edges": [["a", "c"]]}, "leaves the vertex set"),
    ({"vertices": ["a", "a", "b"], "edges": [["a", "b"]]}, "listed more than once"),
    ({"vertices": [], "edges": []}, "lists no vertex"),
    ({**THREE_LEAF_DAG, "weights": {"a|zz": 1.0}}, "'a|zz' does not name two distinct vertices"),
    ({**THREE_LEAF_DAG, "weights": {"a|a": 1.0}}, "'a|a' does not name two distinct vertices"),
    ({**THREE_LEAF_DAG, "weights": {"ab": 1.0}}, "'ab' does not name two distinct vertices"),
    ({**INTEGER_DAG, "weights": {"1|4": 1.0}}, "'1|4' does not name two distinct vertices"),
    ({**THREE_LEAF_DAG, "weights": {"a|b": 1.0, "b|a": 2.0}}, "'b|a' names an edge twice"),
    ({**THREE_LEAF_DAG, "weights": {"a|b": "0.5"}}, "the weight '0.5' of 'a|b' is not a JSON number"),
    ({**THREE_LEAF_DAG, "weights": {"a|b": True}}, "the weight True of 'a|b' is not a JSON number"),
    ({"vertices": "ab", "edges": [["a", "b"]]}, "vertices and edges must be lists"),
    ({"vertices": ["a", "b"], "edges": ["ab"]}, "the edge 'ab' is not a pair of listed vertices"),
    ({"vertices": [1, "1"], "edges": []}, "a vertex is listed twice, as a value or as text"),
])
def test_a_dag_file_over_other_vertices_is_a_parse_error(tmp_path, capsys, dag_obj, detail):
    """An edge to a vertex the file does not list, a vertex listed twice (as
    a value or as text), no vertex at all, vertices or an edge that is no
    list, a weight that is no JSON number, or a weight key "u|v" that does
    not name two distinct vertices, or names an edge named before, is a
    malformed DAG file: exit 2 with one JSON error line, before any sort
    (with or without an index)."""
    dag = tmp_path / "dag.json"
    write(dag, dag_obj)
    out = tmp_path / "order.txt"
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "ParseError" and err["exit"] == 2
    assert detail in err["detail"]
    assert not out.exists()
    if "weights" in dag_obj:
        index = index_fixture(tmp_path)  # over the vertices a, b and c
        capsys.readouterr()
        argv = ["toposort", "--input", str(dag), "--output", str(out), "--index", str(index)]
        assert main(argv) == 2
        assert detail in assert_one_error_line(capsys, 2)["detail"]
        assert not out.exists()


def assert_one_error_line(capsys, code):
    """The run printed exactly one JSON error line, with its exit code."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["exit"] == code
    return err


@pytest.mark.parametrize("argv, obj, detail", [
    (["encode"], {**FAMILY, "vertices": ["a", "b", "a", "c"]}, "listed twice"),
    (["encode"], {**FAMILY, "vertices": ["a", "b", "c", 1, "1"]}, "listed twice"),
    (["encode"], {**FAMILY, "vertices": ["a", "b", ["c"]]}, "is not a JSON key"),
    (["encode"], {**FAMILY, "topologies": [{"edges": [["a"]]}, {"edges": []}]},
     "['a'] of topology 0 is not a pair of listed vertices"),
    (["encode"], {**FAMILY, "topologies": [{"edges": []}, {"edges": [["a", "z"]]}]},
     "['a', 'z'] of topology 1 is not a pair of listed vertices"),
    (["encode"], {**FAMILY, "primes": [2]}, "1 primes for 2 topologies"),
    (["encode"], {**FAMILY, "primes": [2, "x"]}, "are not all integers"),
    (["encode"], {**FAMILY, "primes": [2, 2.5]}, "are not all integers"),
    (["index"], {**GRAPH, "vertices": ["a", "b", "c", "a"]}, "a vertex is listed twice"),
    (["decode"], {**GRAPH, "edges": [{"ends": ["a", "z"], "w": 6}]},
     "are not two distinct listed vertices"),
    (["index"], {**GRAPH, "edges": [{"ends": ["a", "z"], "w": 6}]},
     "are not two distinct listed vertices"),
    (["index"], {**GRAPH, "edges": [{"ends": ["a", "a"], "w": 6}]},
     "are not two distinct listed vertices"),
    (["index"], {**GRAPH, "edges": [{"ends": ["a", "b"], "w": 0}]}, "not an integer at least 1"),
    (["decode", "--primes", "2,3"], {**GRAPH, "d": {"a": [1], "b": [0], "c": [0]}, "primes": []},
     "2 primes for dimension vectors of length 1"),
    (["decode"], {**GRAPH, "d": {"a": [1, 2], "b": [0], "c": [0, 0]}}, "differ in length"),
    (["decode"], {**GRAPH, "d": {"a": [1, 2], "b": [0, "1"], "c": [0, 0]}},
     "is not a list of integers"),
    (["index"], {"vertices": [], "edges": [], "d": {}}, "lists no vertex"),
    (["decode"], {**GRAPH, "edges": [{"ends": ["a", "b"], "w": 2}, {"ends": ["b", "a"], "w": 6}]},
     "an edge is listed twice"),
    (["index"], {**GRAPH, "edges": [*GRAPH["edges"], {"ends": ["b", "c"], "w": 3}]},
     "an edge is listed twice"),
])
def test_a_malformed_family_or_graph_file_is_a_parse_error(tmp_path, capsys, argv, obj, detail):
    """A family or graph file that breaks its schema exits 2 before any
    encode, decode or index work: one JSON error line and no output file."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    write(path, obj)
    assert main([argv[0], "--input", str(path), "--output", str(out), *argv[1:]]) == 2
    err = assert_one_error_line(capsys, 2)
    assert err["error"] == "ParseError" and detail in err["detail"]
    assert not out.exists()


def test_decode_refuses_a_prime_that_is_not_prime(tmp_path, capsys):
    """`decode --primes 2,0` exits 4 (NotPrime), where `residue % 0` was a
    ZeroDivisionError traceback."""
    path, out = tmp_path / "graph.json", tmp_path / "out.json"
    write(path, GRAPH)
    assert main(["decode", "--input", str(path), "--output", str(out), "--primes", "2,0"]) == 4
    assert assert_one_error_line(capsys, 4)["error"] == "NotPrime"
    assert not out.exists()


def test_a_large_prime_is_checked_at_once_and_one_beyond_the_bound_exits_4(tmp_path, capsys):
    """Primality is decided exactly below multitopo.PRIME_BOUND (about
    3.3e24): `encode` of a family with the prime 2^61 - 1 exits 0 at once
    (trial division did not finish), and a prime at or above the bound,
    such as 2^89 - 1, exits 4 (NotPrime) in `encode` and `decode`, with one
    JSON error line and no file."""
    family, graph, out = tmp_path / "family.json", tmp_path / "graph.json", tmp_path / "out.json"
    write(family, {"vertices": ["a", "b"], "topologies": [{"edges": [["a", "b"]]}],
                   "primes": [2**61 - 1]})
    start = time.perf_counter()
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(graph.read_text())["edges"] == [{"ends": ["a", "b"], "w": 2**61 - 1}]
    capsys.readouterr()
    assert main(["decode", "--input", str(graph), "--output", str(out)]) == 0
    capsys.readouterr()
    out.unlink()
    write(family, {"vertices": ["a", "b"], "topologies": [{"edges": [["a", "b"]]}],
                   "primes": [2**89 - 1]})
    for argv in (["encode", "--input", str(family)],
                 ["decode", "--input", str(graph), "--primes", str(2**89 - 1)]):
        assert main([*argv, "--output", str(out)]) == 4
        err = assert_one_error_line(capsys, 4)
        assert err["error"] == "NotPrime" and "beyond the exact primality test" in err["detail"]
        assert not out.exists()


def _json_paths(obj, path=()):
    """The path of every value inside a JSON value, its own () included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, item in items:
        yield from _json_paths(item, (*path, key))


# one value of each JSON type; a path's wrong values are those of another type
# than its own, never an int where a float is (both are JSON numbers), and
# never a falsy one for "primes" or "weights", whose absence is valid
WRONG_TYPES = [None, True, 7, 2.5, "x", [["x"]], {"x": 1}]

# each kind of file: its valid bases, the command lines that read it, and
# the breakages it can have besides a repeated vertex, an unknown edge end
# and a value of the wrong type
BROKEN_FILE_KINDS = {
    "family": ([FAMILY, LOW_BRANCHING_FAMILY], [["encode"]], ["bad prime"]),
    "graph": ([GRAPH], [["decode"], ["index"]],
              ["bad prime", "short vector", "bad weight", "repeated edge"]),
    "dag": ([THREE_LEAF_DAG], [["toposort"]], ["bad weight", "repeated edge"]),
    "index": ([INDEX], [["spectrum", "--bullet", "ultrametric", "--level", "3"]],
              ["bad prime", "bad weight", "repeated edge"]),
}


@st.composite
def broken_file(draw):
    """A family, graph, DAG or index file broken in one place, and the
    command lines that must refuse it."""
    kind = draw(st.sampled_from(list(BROKEN_FILE_KINDS)))
    bases, commands, breakages = BROKEN_FILE_KINDS[kind]
    obj = json.loads(json.dumps(draw(st.sampled_from(bases))))
    if kind == "family":
        edges = [e for t in obj["topologies"] for e in t["edges"]]
    else:
        edges = [rec["ends"] for rec in obj["edges"]] if kind == "graph" else obj["edges"]
    breakage = draw(st.sampled_from(["repeated vertex", "unknown end", "wrong type", *breakages]))
    if breakage == "repeated vertex":
        obj["vertices"].append(draw(st.sampled_from(obj["vertices"])))
    elif breakage == "unknown end":
        draw(st.sampled_from(edges))[draw(st.integers(0, 1))] = "zz"
    elif breakage == "bad prime" and kind == "index":
        obj["p"] = draw(st.sampled_from([0, 1, -3, 4, 2.5, "x", None, True]))
    elif breakage == "bad prime":
        i = draw(st.integers(0, len(obj["primes"]) - 1))  # every base holds two primes or more
        obj["primes"][i] = draw(st.sampled_from([0, 1, -3, 4, 2.5, "x", None, True,
                                                 obj["primes"][i - 1]]))
        if kind == "graph":
            commands = [["decode"]]  # index reads no prime
    elif breakage == "short vector":
        obj["d"][draw(st.sampled_from(obj["vertices"]))].pop()
    elif breakage == "repeated edge" and kind == "graph":
        rec = draw(st.sampled_from(obj["edges"]))
        obj["edges"].append({"ends": rec["ends"][::draw(st.sampled_from([1, -1]))],
                             "w": draw(st.sampled_from([rec["w"], 1]))})
    elif breakage == "repeated edge" and kind == "dag":  # a weight key, repeated reversed
        u, v = draw(st.sampled_from(sorted(obj["weights"]))).split("|")
        obj["weights"][f"{v}|{u}"] = draw(st.sampled_from([obj["weights"][f"{u}|{v}"], 1.0]))
    elif breakage == "repeated edge":
        u, v, wt = draw(st.sampled_from(obj["edges"]))
        obj["edges"].append([*(u, v)[::draw(st.sampled_from([1, -1]))],
                             draw(st.sampled_from([wt, 1.0]))])
    elif breakage == "bad weight":
        bad = draw(st.sampled_from([0, -1, "6", None, True, [6]]
                                   + ([2.5] if kind == "graph" else [])))  # graph weights are ints
        if kind == "graph":
            draw(st.sampled_from(obj["edges"]))["w"] = bad
        elif kind == "dag":
            obj["weights"][draw(st.sampled_from(sorted(obj["weights"])))] = bad
        else:
            draw(st.sampled_from(obj["edges"]))[2] = bad
    else:
        root = {"file": obj}  # a holder, so that the file itself has a parent
        *keys, last = ("file", *draw(st.sampled_from(list(_json_paths(obj)))))
        parent = root
        for key in keys:
            parent = parent[key]
        wrong = [v for v in WRONG_TYPES if type(v) is not type(parent[last])
                 and not (type(v) is int and type(parent[last]) is float)
                 and not (last in ("primes", "weights") and not v)]
        parent[last] = draw(st.sampled_from(wrong))
        obj = root["file"]
    return obj, commands


@settings(max_examples=240, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=broken_file())
def test_a_broken_family_or_graph_file_exits_with_a_listed_code(tmp_path, capsys, case):
    """Every family, graph, DAG or index file broken in one place makes
    `encode`, `decode`, `index`, `toposort` and `spectrum` return a code
    of EXIT_CODES with one JSON error line and no output file: no
    exception escapes main."""
    obj, commands = case
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for command, *args in commands:
        code = main([command, "--input", str(path), "--output", str(out), *args])
        assert code in EXIT_CODES.values(), (command, obj)
        assert_one_error_line(capsys, code)
        assert not out.exists()


def test_spectrum_subcommand(tmp_path, capsys):
    index = index_fixture(tmp_path)
    out = tmp_path / "spectrum.tsv"
    code = main([
        "spectrum", "--input", str(index), "--output", str(out),
        "--bullet", "ultrametric", "--measure", "nu", "--alpha", "1.0",
        "--level", "4",
    ])
    assert code == 0
    summary = parse_summaries(capsys.readouterr().out)[-1]
    assert float(summary["metrics"]["max_residual"]) < 1e-9
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("kind\t")
    assert len(lines) - 1 == summary["metrics"]["eigenpairs"]


def test_heat_subcommand_two_routes(tmp_path, capsys):
    index = index_fixture(tmp_path)
    out = tmp_path / "kernel.txt"
    code = main([
        "heat", "--input", str(index), "--output", str(out),
        "--bullet", "graphdist", "--measure", "haar", "--alpha", "1.0",
        "--level", "4", "--t", "0.5",
    ])
    assert code == 0
    summary = parse_summaries(capsys.readouterr().out)[-1]
    assert float(summary["metrics"]["two_route_gap"]) < 1e-9
    assert float(summary["metrics"]["row_sum_defect"]) < 1e-10


def test_bounds_truncate_subcommand(tmp_path, capsys):
    index = index_fixture(tmp_path)
    out = tmp_path / "bounds.json"
    code = main([
        "bounds", "--input", str(index), "--output", str(out),
        "--bullet", "ultrametric", "--level", "4", "--truncate", "1", "--t", "1.0",
    ])
    assert code == 0
    summary = parse_summaries(capsys.readouterr().out)[-1]
    assert float(summary["metrics"]["slack"]) >= -1e-9
    report = json.loads(out.read_text())
    assert report["measured_sup_error"] <= report["theoretical_bound"] + 1e-9


def test_bounds_swap_subcommand(tmp_path, capsys):
    index = index_fixture(tmp_path)
    out = tmp_path / "swap.json"
    code = main([
        "bounds", "--input", str(index), "--output", str(out),
        "--level", "4", "--swap", "graphdist,ultrametric", "--t", "1.0",
    ])
    assert code == 0
    summary = parse_summaries(capsys.readouterr().out)[-1]
    assert float(summary["metrics"]["slack"]) >= -1e-9


@pytest.mark.parametrize("mode", [
    ["--bullet", "adjacency", "--truncate", "1"],
    ["--swap", "adjacency,graphdist"],
    ["--swap", "ultrametric,adjacency"],
])
def test_bounds_with_a_zero_adjacency_rate_exit_with_bad_kernel(tmp_path, capsys, monkeypatch,
                                                                  mode):
    # a-b and b-c are equally heavy, so {a, b, c} is one cut ball at level
    # 1; a and c are not adjacent, so their adjacency rate is 0 and no
    # mean-value constant exists.  That is found before any evolver.
    fam, graph, index = (tmp_path / name for name in ("family.json", "graph.json", "index.json"))
    write(fam, {
        "vertices": ["a", "b", "c", "d"],
        "topologies": [{"edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
                       {"edges": [["a", "b"], ["b", "c"]]}],
        "primes": [2, 3],
    })
    assert main(["encode", "--input", str(fam), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    capsys.readouterr()

    def unreachable(*args, **kwargs):
        raise AssertionError("an evolver was built before the constants")

    monkeypatch.setattr(heat, "_BallEvolver", unreachable)
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--input", str(index), "--output", str(out), "--level", "3", *mode])
    assert code == 25
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "BadKernel",
        "detail": "mean-value constant needs positive rates on both sides",
        "exit": 25,
    }
    assert not out.exists()


def test_converge_subcommand(tmp_path, capsys):
    index = index_fixture(tmp_path)
    out = tmp_path / "converge.tsv"
    code = main([
        "converge", "--input", str(index), "--output", str(out),
        "--bullet", "ultrametric", "--levels", "4,5,6", "--reference", "6",
        "--tau", "1.0",
    ])
    assert code == 0
    rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
    gaps = [float(g) for _, g in rows]
    assert gaps[-1] < 1e-9
    capsys.readouterr()


def test_toposort_mixed_label_types(tmp_path, capsys):
    dag = tmp_path / "dag.json"
    write(dag, {"vertices": [1, "a", 2], "edges": [[1, 2], ["a", 2]]})
    out = tmp_path / "order.txt"
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 0
    assert out.read_text().split() == ["1", "a", "2"]


def run_python(args, **env):
    """A fresh interpreter with the package of this checkout on its path and
    the given environment variables."""
    src = str(Path(heat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, **env})


def run_cli(argv, **env):
    return run_python(["-m", "ultraheat.cli", *argv], **env)


def test_a_bad_weight_names_its_edge_alike_under_every_hash_seed(tmp_path):
    """The BadWeight detail names the two ends of the edge in str order, not
    in the order of a set of strings, which follows the hash seed."""
    labels = [f"v{i}" for i in range(10)]
    dag = tmp_path / "dag.json"
    write(dag, {"vertices": labels, "edges": [list(pair) for pair in zip(labels, labels[1:])],
                "weights": {"v9|v0": -1.0}})
    errs = {run_cli(["toposort", "--input", str(dag), "--output", str(tmp_path / "order.txt")],
                    PYTHONHASHSEED=str(seed)).stderr for seed in (1, 2, 3, 4)}
    assert len(errs) == 1
    assert json.loads(errs.pop()) == {
        "error": "BadWeight",
        "detail": "edge weight must be finite and positive, got -1.0 on {'v0', 'v9'}",
        "exit": 23,
    }


def test_a_connected_dag_whose_largest_weight_is_the_largest_float_sorts(tmp_path, capsys):
    """No weight lies above the largest float, so the edges that join the
    components share its height; the graph is connected, so its tree, and
    the order, are those of its own weights."""
    dag, out = tmp_path / "dag.json", tmp_path / "order.txt"
    dag.write_text('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], '
                   '"weights": {"a|b": 1.7976931348623157e308, "b|c": 1.0}}', encoding="utf-8")
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "a\nb\nc\n"
    capsys.readouterr()


@pytest.mark.parametrize("wt", ["NaN", "Infinity", "-1"])
def test_toposort_bad_weight_exit_code(tmp_path, capsys, wt):
    dag = tmp_path / "dag.json"
    dag.write_text(
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], '
        f'"weights": {{"a|b": 0.5, "b|c": {wt}}}}}',
        encoding="utf-8",
    )
    out = tmp_path / "order.txt"
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 23
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BadWeight" and err["exit"] == 23


def test_alpha_below_one_exit_code(tmp_path, capsys):
    index = index_fixture(tmp_path)
    code = main([
        "spectrum", "--input", str(index), "--output", str(tmp_path / "s.tsv"),
        "--bullet", "ultrametric", "--alpha", "0.5", "--level", "4",
    ])
    assert code == 21
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BadAlpha" and err["exit"] == 21
    assert "0.5" in err["detail"]


def test_infinite_alpha_exit_code(tmp_path, capsys):
    index = index_fixture(tmp_path)
    code = main([
        "spectrum", "--input", str(index), "--output", str(tmp_path / "s.tsv"),
        "--bullet", "ultrametric", "--alpha", "inf", "--level", "4",
    ])
    assert code == 21
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err.strip().splitlines()[-1])
    assert err["error"] == "BadAlpha" and err["exit"] == 21
    assert not (tmp_path / "s.tsv").exists()


@pytest.mark.parametrize("argv", [
    ["bounds", "--truncate", "1", "--t", "nan"],
    ["bounds", "--truncate", "1", "--t", "inf"],
    ["bounds", "--truncate", "1", "--t=-inf"],
    ["bounds", "--swap", "graphdist,ultrametric", "--t", "nan"],
    ["converge", "--bullet", "ultrametric", "--levels", "4,5", "--reference", "5", "--tau", "nan"],
    ["heat", "--bullet", "ultrametric", "--t", "nan"],
    ["heat", "--bullet", "ultrametric", "--t", "inf"],
], ids=["bounds-nan", "bounds-inf", "bounds-minus-inf", "swap-nan", "converge-nan",
        "heat-nan", "heat-inf"])
def test_non_finite_times_exit_19(tmp_path, capsys, argv):
    index = index_fixture(tmp_path)
    out = tmp_path / "out"
    level = [] if argv[0] == "converge" else ["--level", "4"]
    code = main([argv[0], "--input", str(index), "--output", str(out), *level, *argv[1:]])
    assert code == 19
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err.strip().splitlines()[-1])
    assert err["error"] == "NegativeTime" and err["exit"] == 19
    assert "not a finite time" in err["detail"]
    assert not out.exists()


def test_exit_codes_are_distinct_per_error_type():
    from ultraheat.cli import EXIT_CODES

    shared = {4}  # DuplicatePrime and NotPrime are both bad prime labels
    codes = [c for c in EXIT_CODES.values() if c not in shared]
    assert len(codes) == len(set(codes))
    assert 30 not in EXIT_CODES.values()  # reserved for unmapped library errors


def test_heat_reads_the_generator_only_in_row_blocks(tmp_path, capsys, monkeypatch):
    """`heat` builds no N x N generator or kernel matrix and never calls the
    dense `semigroup`, `disc_semigroup` or `full_basis`: it reads the
    generator in row blocks of whole discs, each fewer rows than cells,
    over every row in order, once: the lumping bound takes C and its share
    of delta from each block as it is read."""
    from ultraheat import operators

    for module, name in ((operators, "generator"), (operators, "kernel_matrix"),
                         (heat, "semigroup"), (heat, "disc_semigroup"), (spectra, "full_basis")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: pytest.fail(f"{name} was called"))
    read, passes = [], []
    original = heat.generator_rows

    def recording(spec, disc, measure, blocks):
        rows = original(spec, disc, measure, blocks)

        def recorded():
            passes.append(len(read))
            for cells, block, cols in rows():
                read.append((cells, block.shape, cols.shape))
                yield cells, block, cols
        return recorded

    monkeypatch.setattr(heat, "generator_rows", recording)
    index = index_fixture(tmp_path)
    capsys.readouterr()
    code = main([
        "heat", "--input", str(index), "--output", str(tmp_path / "kernel.txt"),
        "--bullet", "graphdist", "--level", "8", "--t", "0.5",
    ])
    assert code == 0
    cells = json.loads(capsys.readouterr().out)["metrics"]["cells"]
    s = cells // 3  # three vertex discs
    assert cells == 192 and passes == [0] and len(read) > 1
    for cells_read, block, cols in read:
        assert cells_read.start % s == 0 and len(cells_read) % s == 0 and len(cells_read) < cells
        assert block == cols == (len(cells_read), cells)
    ranges = [r for r, _, _ in read]
    assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
    assert ranges[-1].stop == cells


def test_spectrum_and_heat_never_assemble_the_basis_matrix(tmp_path, capsys, monkeypatch):
    """`spectrum` and `heat` read the basis's disc blocks, its dense columns
    and its records: the N x N basis matrix is never read."""
    monkeypatch.setattr(spectra.EigenBasis, "psi",
                        property(lambda basis: pytest.fail("EigenBasis.psi was read")))
    index = index_fixture(tmp_path)
    for bullet, measure in (("ultrametric", "nu"), ("graphdist", "haar")):
        common = ["--input", str(index), "--bullet", bullet, "--measure", measure, "--level", "4"]
        assert main(["spectrum", *common, "--output", str(tmp_path / "s.tsv")]) == 0
        assert main(["heat", *common, "--t", "0.5", "--output", str(tmp_path / "k.txt")]) == 0
    capsys.readouterr()


def test_bounds_requires_exactly_one_mode(tmp_path):
    index = index_fixture(tmp_path)
    with pytest.raises(SystemExit):
        main(["bounds", "--input", str(index), "--output", "x.json", "--level", "4"])


def test_toposort_seeds_match_integer_labels(tmp_path, capsys):
    dag = tmp_path / "dag.json"
    write(dag, {"vertices": [1, "a", 2], "edges": [[1, 2], ["a", 2]]})
    out = tmp_path / "order.txt"
    for seeds in ("1", "a,1", "2"):
        assert main(["toposort", "--input", str(dag), "--output", str(out),
                     "--seeds", seeds]) == 0
        assert out.read_text().split() == ["1", "a", "2"]
    capsys.readouterr()


def test_a_weight_key_names_integer_vertices_by_text(tmp_path, capsys):
    """A weight key "u|v" names its vertices by their str, as the seeds do:
    the weight "1|2" weights the edge between the integers 1 and 2."""
    dag = tmp_path / "dag.json"
    write(dag, INTEGER_DAG)
    out = tmp_path / "order.txt"
    assert main(["toposort", "--input", str(dag), "--output", str(out), "--seeds", "2"]) == 0
    assert out.read_text() == "1\n2\n3\n"
    capsys.readouterr()


def test_an_integer_vertex_weight_reaches_the_dendrogram():
    """The DAG reader keys the weight "1|2" by the vertices 1 and 2, and the
    index the sort builds without --index merges them at that weight, below
    the join of the vertex 3 that no weight reaches."""
    from ultraheat.cli import _join_components
    from ultraheat.serialize import dag_from_obj
    from ultraheat.ultraindex import graph_dendrogram, minimal_cluster

    dag, weights = dag_from_obj(INTEGER_DAG)
    assert weights == {frozenset((1, 2)): 0.5}
    dend = graph_dendrogram(dag.vertices, _join_components(dag.str_order, weights))
    assert minimal_cluster(dend, 1) == minimal_cluster(dend, 2) == frozenset((1, 2))
    assert dend.leaves[1].parent.radius == 0.5
    assert dend.root.radius == math.nextafter(0.5, math.inf)


@pytest.mark.parametrize("seeds", ["zz", "a,zz"])
def test_toposort_unknown_seed_is_a_parse_error(tmp_path, capsys, seeds):
    dag = tmp_path / "dag.json"
    write(dag, {"vertices": [1, "a", 2], "edges": [[1, 2], ["a", 2]]})
    out = tmp_path / "order.txt"
    argv = ["toposort", "--input", str(dag), "--output", str(out), "--seeds", seeds]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParseError" and err["exit"] == 2
    assert "'zz'" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("dag_obj, seeds", [
    # a seed the index does not hold
    ({"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]}, ["--seeds", "d"]),
    # fewer vertices than the index: the sort would emit the index's extra ones
    ({"vertices": ["a", "b"], "edges": [["a", "b"]]}, []),
])
def test_toposort_index_over_other_vertices_is_a_parse_error(tmp_path, capsys, monkeypatch,
                                                             dag_obj, seeds):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sort ran before the index was checked")

    monkeypatch.setattr(toposort, "parallel_toposort", unreachable)
    index = index_fixture(tmp_path)  # vertices a, b, c
    dag = tmp_path / "dag.json"
    write(dag, dag_obj)
    out = tmp_path / "order.txt"
    argv = ["toposort", "--input", str(dag), "--output", str(out), "--index", str(index), *seeds]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParseError" and err["exit"] == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_toposort_parallelism_below_one_is_a_usage_error(tmp_path, capsys, value):
    dag = tmp_path / "dag.json"
    write(dag, THREE_LEAF_DAG)
    with pytest.raises(SystemExit) as exc:
        main(["toposort", "--input", str(dag), "--output", str(tmp_path / "o.txt"),
              "--parallelism", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--parallelism" in err and "Traceback" not in err


def test_converge_rejects_levels_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an eigensolve ran before the levels were checked")

    monkeypatch.setattr(heat, "weighted_symmetric_eig", unreachable)
    monkeypatch.setattr(spectra, "weighted_symmetric_eig", unreachable)
    index = index_fixture(tmp_path)
    m = json.loads(index.read_text())["m"]
    for levels in (f"{m},{m + 1}", f"{m + 1},{m + 3}"):
        code = main([
            "converge", "--input", str(index), "--output", str(tmp_path / "c.tsv"),
            "--bullet", "ultrametric", "--levels", levels, "--reference", str(m + 2),
        ])
        assert code == 11
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "InvalidLevel" and err["exit"] == 11
    code = main([
        "converge", "--input", str(index), "--output", str(tmp_path / "c.tsv"),
        "--bullet", "ultrametric", "--levels", str(m), "--reference", str(m),
    ])
    assert code == 10
    capsys.readouterr()


FOUR_VERTEX_FAMILY = {
    "vertices": ["a", "b", "c", "d"],
    "topologies": [
        {"edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
        {"edges": [["a", "b"]]},
    ],
    "primes": [2, 3],
}


@pytest.mark.parametrize("subcommand", ["spectrum", "converge"])
def test_oversized_level_exits_24_before_enumerating_cells(tmp_path, capsys, subcommand):
    import time

    fam, graph, index = (tmp_path / name for name in ("f.json", "g.json", "i.json"))
    write(fam, FOUR_VERTEX_FAMILY)
    assert main(["encode", "--input", str(fam), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    argv = [subcommand, "--input", str(index), "--output", str(tmp_path / "out"),
            "--bullet", "ultrametric"]
    argv += ["--level", "40"] if subcommand == "spectrum" else ["--levels", "39",
                                                                 "--reference", "40"]
    start = time.perf_counter()
    assert main(argv) == 24
    assert time.perf_counter() - start < 10.0
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TooManyCells" and err["exit"] == 24
    assert "dense-matrix limit" in err["detail"]


# the detail each edit must name, where a test pins it
INDEX_EDIT_DETAIL = {
    "v1": "re-run `ultraheat index`",
    "v2": "re-run `ultraheat index`",
    "vertex_twice": "list a vertex twice",
    "self_loop": "['a', 'a', 0.7] is not [u, v, weight] with u and v two distinct listed",
    "edge_pair": "['a', 'b'] is not [u, v, weight]",
    "edge_unlisted": "['c', 'z', 0.7] is not [u, v, weight] with u and v two distinct listed",
    "unsorted": "index vertices are not sorted by str",
}


@pytest.mark.parametrize("edit", ["vertex", "m", "no_m", "p", "mst_weight", "v1", "v2",
                                  "huge_p", "weight_text", "weight_bool", "edge_twice",
                                  "vertices_text", "vertex_twice", "self_loop", "edge_pair",
                                  "edge_unlisted", "unsorted"])
def test_hand_edited_index_is_a_parse_error(tmp_path, capsys, edit):
    index = index_fixture(tmp_path)
    obj = json.loads(index.read_text())
    level = obj["m"] + 1
    if edit == "vertex":
        obj["vertices"][0] = "z"
    elif edit == "m":
        obj["m"] += 1
    elif edit == "no_m":
        del obj["m"]
    elif edit == "p":
        obj["p"] = 4
    elif edit == "huge_p":  # beyond the exact primality test
        obj["p"] = 2**89 - 1
    elif edit == "mst_weight":
        # the fixture graph is a path, so both edges are in the tree: tied,
        # they merge all three vertices in one node, beyond p = 2 and m = 2
        obj["edges"][0][2] = obj["edges"][1][2]
    elif edit == "weight_text":
        obj["edges"][0][2] = "0.5"
    elif edit == "weight_bool":
        obj["edges"][0][2] = True
    elif edit == "edge_twice":  # the edge a-b again, reversed: its last weight won
        obj["edges"].append(["b", "a", 0.7])
    elif edit == "vertices_text":  # was read as the vertices a, b and c
        obj["vertices"] = "abc"
    elif edit == "vertex_twice":  # was reported as a graph that is not connected
        obj["vertices"].append("a")
    elif edit == "self_loop":
        obj["edges"].append(["a", "a", 0.7])
    elif edit == "edge_pair":  # no weight
        obj["edges"][0] = obj["edges"][0][:2]
    elif edit == "edge_unlisted":
        obj["edges"].append(["c", "z", 0.7])
    elif edit == "unsorted":  # distinct, but b before a
        obj["vertices"][:2] = ["b", "a"]
    elif edit == "v1":  # the shape of a version-1 file: no "version" key, a "delta" matrix
        del obj["version"]
        obj["delta"] = [[0.0] * 3] * 3
    else:  # the shape of a version-2 file: the stored disc assignment
        obj["version"] = 2
        obj["assignment"] = {"p": obj.pop("p"), "m": obj.pop("m"),
                             "discs": {"a": "00", "b": "01", "c": "10"}, "rho": [[1.0, 2.0]]}
    write(index, obj)
    code = main([
        "spectrum", "--input", str(index), "--output", str(tmp_path / "s.tsv"),
        "--bullet", "ultrametric", "--level", str(level),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParseError" and err["exit"] == 2
    assert INDEX_EDIT_DETAIL.get(edit, "") in err["detail"]
    assert not (tmp_path / "s.tsv").exists()


def test_deep_chain_index_writes_and_reads_back(tmp_path, capsys):
    """A 700-vertex path whose distance weights fall along the path is a
    699-level chain dendrogram: the flat index file has no nesting, so it
    is written and read back with no recursion limit in the way."""
    n = 700
    labels = [f"v{i:03d}" for i in range(n)]
    graph, index, dag, out = (tmp_path / name for name in ("g.json", "i.json", "d.json", "o.txt"))
    write(graph, {
        "vertices": labels,
        # w rises along the path, so the distance weight 1/log(w+1) falls
        "edges": [{"ends": [labels[i], labels[i + 1]], "w": i + 2} for i in range(n - 1)],
        "d": {l: [0] for l in labels},
    })
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    summary = parse_summaries(capsys.readouterr().out)[-1]
    assert summary["metrics"]["max_level"] == n - 1
    write(dag, {"vertices": labels, "edges": [[labels[i], labels[i + 1]] for i in range(n - 1)]})
    argv = ["toposort", "--input", str(dag), "--output", str(out), "--index", str(index),
            "--seeds", labels[0]]
    assert main(argv) == 0
    assert out.read_text().split() == labels
    capsys.readouterr()


def test_rates_beyond_the_float_range_exit_26_without_an_artifact(tmp_path, capsys):
    """On a 1000-vertex path whose weights fall along it (p = 2, m = 999),
    level 1000 puts the Vladimirov rate 2^(999 alpha) above the float range
    at alpha = 1.3: `spectrum`, `heat` and `converge` exit 26 and write
    nothing, and a truncation bound whose mean-value constant overflows
    too.  Cutting at level 500 asks for about 10^150 cells, which exits 24
    with the count in a bounded form."""
    n = 1000
    labels = [f"v{i:04d}" for i in range(n)]
    graph, index, out = tmp_path / "g.json", tmp_path / "i.json", tmp_path / "out"
    write(graph, {
        "vertices": labels,
        "edges": [{"ends": [labels[i], labels[i + 1]], "w": i + 2} for i in range(n - 1)],
        "d": {l: [0] for l in labels},
    })
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    common = ["--input", str(index), "--output", str(out), "--alpha", "1.3"]
    runs = [["spectrum", "--bullet", bullet, "--level", "1000"]
            for bullet in ("ultrametric", "graphdist")]
    runs += [["heat", "--bullet", "ultrametric", "--level", "1000", "--t", "0.5"],
             ["converge", "--bullet", "ultrametric", "--levels", "1000", "--reference", "1000"],
             ["bounds", "--level", "1000", "--truncate", "998"]]
    capsys.readouterr()
    for argv in runs:
        assert main([argv[0], *common, *argv[1:]]) == 26, argv
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "RateOverflow" and err["exit"] == 26
        assert not out.exists()
    assert main(["bounds", *common, "--level", "1000", "--truncate", "500"]) == 24
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TooManyCells"
    assert err["detail"].startswith("about 10^150.5 cells exceed the dense-matrix limit")


def test_a_deep_path_heat_kernel_at_alpha_one_certifies(tmp_path, capsys):
    """On the 1000-vertex falling-weight path at level 1000 and alpha 1.0
    the rates stay finite (2^999): `heat` evolves through the pure-ball
    spectrum and exits 0 for either bullet, with a two-route gap and a
    row-sum defect within 1e-9."""
    n = 1000
    labels = [f"v{i:04d}" for i in range(n)]
    graph, index, out = tmp_path / "g.json", tmp_path / "i.json", tmp_path / "out"
    write(graph, {
        "vertices": labels,
        "edges": [{"ends": [labels[i], labels[i + 1]], "w": i + 2} for i in range(n - 1)],
        "d": {l: [0] for l in labels},
    })
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    capsys.readouterr()
    for bullet in ("ultrametric", "graphdist"):
        assert main(["heat", "--input", str(index), "--output", str(out), "--bullet", bullet,
                     "--alpha", "1.0", "--level", "1000", "--t", "0.5"]) == 0
        metrics = parse_summaries(capsys.readouterr().out)[-1]["metrics"]
        assert metrics["cells"] == 2000
        assert float(metrics["two_route_gap"]) <= 1e-9
        assert float(metrics["row_sum_defect"]) <= 1e-9


def test_heat_whose_certificates_are_not_finite_exits_27_without_an_artifact(tmp_path, capsys):
    """On the 3-vertex index (p = 2, m = 2) at alpha 400 and level 3 the
    generator's entries reach 1e240, the disc-block eigensolves of the
    second route find spurious positive eigenvalues of their rounding and
    the exponentials overflow, so the two-route gap and the row-sum defect
    are not finite: `heat` exits 27 and writes nothing."""
    index = index_fixture(tmp_path)
    out = tmp_path / "kernel.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["heat", "--input", str(index), "--output", str(out), "--bullet", "graphdist",
                     "--alpha", "400", "--level", "3", "--t", "0.5"])
    assert code == 27
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CertificateFailed" and err["exit"] == 27
    assert "not finite" in err["detail"]
    assert not out.exists()


def test_heat_whose_gap_exceeds_its_scale_exits_27_without_an_artifact(tmp_path, capsys):
    """On the 3-vertex index (p = 2, m = 2) at alpha 20 and level 4 under
    nu, the second route's lumping bound is finite but above the rounding
    scale gap_scale = max(1e-12, 4 eps ||A||_inf t) (two-route gap 213,
    scale 128): `heat` exits 27 with one stderr line that names both, and
    writes nothing."""
    index = index_fixture(tmp_path)
    out = tmp_path / "kernel.txt"
    code = main(["heat", "--input", str(index), "--output", str(out), "--bullet", "graphdist",
                 "--measure", "nu", "--alpha", "20", "--level", "4", "--t", "0.5"])
    assert code == 27
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CertificateFailed" and err["exit"] == 27
    assert "above its scale" in err["detail"]
    assert not out.exists()


def test_spectrum_with_a_residual_that_is_not_finite_exits_27_without_an_artifact(
        tmp_path, capsys, monkeypatch):
    """A NaN residual in a later column, which the builtin max of the
    records would pass over, fails the spectrum: exit 27, one JSON error
    line and no table."""
    original = spectra._basis_residuals

    def with_a_nan(*args):
        out = original(*args)
        out[-2] = math.nan
        return out

    monkeypatch.setattr(spectra, "_basis_residuals", with_a_nan)
    index = index_fixture(tmp_path)
    out = tmp_path / "spectrum.tsv"
    capsys.readouterr()
    code = main(["spectrum", "--input", str(index), "--output", str(out), "--bullet", "graphdist",
                 "--measure", "haar", "--level", "3"])
    assert code == 27
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "CertificateFailed" and err["exit"] == 27
    assert "not finite" in err["detail"]
    assert not out.exists()


def test_spectrum_never_builds_a_generator(tmp_path, capsys, monkeypatch):
    """`spectrum` certifies its basis from the factors: it calls neither
    `operators.generator` nor `operators.kernel_matrix`, nor their row
    blocks, for any bullet or measure."""
    from ultraheat import operators

    for name in ("generator", "kernel_matrix", "generator_rows", "kernel_rows"):
        monkeypatch.setattr(operators, name,
                            lambda *args, name=name: pytest.fail(f"{name} was called"))
    index = index_fixture(tmp_path)
    for bullet in ("ultrametric", "graphdist", "adjacency"):
        for measure in ("haar", "nu"):
            assert main(["spectrum", "--input", str(index), "--output", str(tmp_path / "s.tsv"),
                         "--bullet", bullet, "--measure", measure, "--level", "4"]) == 0
            metrics = parse_summaries(capsys.readouterr().out)[-1]["metrics"]
            assert metrics["eigenpairs"] == metrics["cells"] == 12
            assert float(metrics["max_residual"]) <= 1e-9


def assert_spectrum_fails_its_gate(argv, out, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 27
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "CertificateFailed" and err["exit"] == 27
    assert "above 1e-9" in err["detail"]
    assert not out.exists()


def test_spectrum_whose_residuals_exceed_1e9_exits_27_without_an_artifact(tmp_path, capsys):
    """At alpha 20 and level 6 on the 3-vertex index the Vladimirov rates
    reach 2^100, and the rounding of a disc's sum of them is as large as the
    eigenvalue of its coarsest wavelets: their residual is about 2, finite
    and above 1e-9, so `spectrum` exits 27 and writes nothing."""
    index = index_fixture(tmp_path)
    out = tmp_path / "spectrum.tsv"
    capsys.readouterr()
    assert_spectrum_fails_its_gate(
        ["spectrum", "--input", str(index), "--output", str(out), "--bullet", "ultrametric",
         "--measure", "nu", "--alpha", "20", "--level", "6"], out, capsys)


def test_a_deep_path_spectrum_at_alpha_one_fails_its_gate(tmp_path, capsys):
    """On the 1000-vertex falling-weight path at level 1000 and alpha 1.0
    the rates are finite (2^999), but the Kozyrev columns reach 2^499.5,
    and the rounding of A psi against them puts the residual near 1e134,
    since the pinned formula does not divide by max|psi|: `spectrum` exits
    27 and writes nothing, for either bullet, under Haar and under nu."""
    n = 1000
    labels = [f"v{i:04d}" for i in range(n)]
    graph, index, out = tmp_path / "g.json", tmp_path / "i.json", tmp_path / "s.tsv"
    write(graph, {
        "vertices": labels,
        "edges": [{"ends": [labels[i], labels[i + 1]], "w": i + 2} for i in range(n - 1)],
        "d": {l: [0] for l in labels},
    })
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    capsys.readouterr()
    for bullet, measure in (("ultrametric", "haar"), ("graphdist", "nu")):
        assert_spectrum_fails_its_gate(
            ["spectrum", "--input", str(index), "--output", str(out), "--bullet", bullet,
             "--measure", measure, "--alpha", "1.0", "--level", "1000"], out, capsys)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--level", "40"],
    ["heat", "--level", "40", "--t", "0.5"],
    ["bounds", "--level", "40", "--truncate", "1"],
    ["converge", "--levels", "40", "--reference", "40"],
])
def test_cells_are_counted_before_the_base_matrix(tmp_path, capsys, monkeypatch, argv):
    """A level whose cells exceed the dense limit exits 24 before the
    kernel's base matrix is built: the graph distances are never computed."""
    from ultraheat import ultraindex

    index = index_fixture(tmp_path)
    monkeypatch.setattr(ultraindex, "graph_distances",
                        lambda *args: pytest.fail("graph distances were computed"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([argv[0], "--input", str(index), "--output", str(out),
                 "--bullet", "graphdist", *argv[1:]]) == 24
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TooManyCells" and err["exit"] == 24
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["heat", "--bullet", "graphdist", "--alpha", "400", "--level", "3", "--t", "0.5"], 27),
    (["spectrum", "--bullet", "ultrametric", "--alpha", "2000", "--level", "3"], 26),
])
def test_a_non_finite_result_is_reported_without_a_numpy_warning(tmp_path, capsys, argv, code):
    """The dense route of `heat` at alpha 400 and the rates of `spectrum`
    at alpha 2000 overflow on the 3-vertex index; each run, with every
    warning turned into an error, exits with its typed error and stderr is
    that one JSON line."""
    index = index_fixture(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], "--input", str(index), "--output", str(out), *argv[1:]]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["exit"] == code
    assert not out.exists()


def test_no_rate_of_a_cell_paired_with_itself_is_raised_to_alpha(tmp_path, capsys):
    """At alpha 400 and level 3 on the 3-vertex index, the rate 2^(3 * 400)
    of a cell paired with itself would overflow, but no generator entry
    needs it: `spectrum`, `bounds --truncate 1` and `converge` run with
    every warning turned into an error."""
    index = index_fixture(tmp_path)
    common = ["--input", str(index), "--output", str(tmp_path / "out"), "--alpha", "400"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["spectrum", *common, "--bullet", "ultrametric", "--measure", "nu", "--level", "3"])
        assert main(["bounds", *common, "--level", "3", "--truncate", "1"]) == 0
        assert main(["converge", *common, "--bullet", "ultrametric", "--levels", "3",
                     "--reference", "3"]) == 0
    capsys.readouterr()


def test_path_index_and_toposort_artifacts_are_pinned(tmp_path, capsys):
    """The version-3 index file and the default-seed toposort order of the
    1500-vertex path, pinned by sha256: a dendrogram rewrite must leave
    both byte for byte as they were."""
    n = 1500
    labels = [f"v{i:04d}" for i in range(n)]
    graph, index, dag, out = (tmp_path / name for name in ("g.json", "i.json", "d.json", "o.txt"))
    write(graph, {
        "vertices": labels,
        "edges": [{"ends": [labels[i], labels[i + 1]], "w": i + 2} for i in range(n - 1)],
        "d": {l: [0] for l in labels},
    })
    write(dag, {"vertices": labels, "edges": [[labels[i], labels[i + 1]] for i in range(n - 1)]})
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    assert main(["toposort", "--input", str(dag), "--output", str(out), "--index", str(index)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(index.read_bytes()).hexdigest() == (
        "ba917e4de70bb91600a4edb73a21fe2b333f68e9e2e73a7d957e081735b33088")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8bece6694b1f36f7c7dd27c5de1ab21f9bdbe5c71d44901de9d7ca0da88b70cf")


def test_toposort_keeps_each_seed_clusters_height_order(tmp_path, capsys):
    """a -> c and d -> a over the index ((a, b), (c, d)): the clusters of
    the seeds a and c sort as a b and d c, and the order keeps both."""
    graph, index, dag, out = (tmp_path / name for name in ("g.json", "i.json", "d.json", "o.txt"))
    write(graph, {
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"ends": ["a", "b"], "w": 6}, {"ends": ["c", "d"], "w": 6},
                  {"ends": ["b", "c"], "w": 2}],
        "d": {v: [0] for v in "abcd"},
    })
    write(dag, {"vertices": ["a", "b", "c", "d"], "edges": [["a", "c"], ["d", "a"]]})
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    assert main(["toposort", "--input", str(dag), "--output", str(out), "--index", str(index),
                 "--seeds", "a,c"]) == 0
    capsys.readouterr()
    assert out.read_text() == "d\na\nb\nc\n"


def test_encode_and_decode_artifacts_are_pinned(tmp_path, capsys):
    """The `encode` and `decode` files of the low-branching family, pinned
    by sha256: a rewrite of the JSON writer must leave them byte for byte as
    they were, and the reported sha256 is that of the file's bytes."""
    family, graph, back = (tmp_path / name for name in ("f.json", "g.json", "b.json"))
    write(family, LOW_BRANCHING_FAMILY)
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["decode", "--input", str(graph), "--output", str(back)]) == 0
    digests = [doc["artifacts"][0]["sha256"] for doc in parse_summaries(capsys.readouterr().out)]
    assert digests == [hashlib.sha256(path.read_bytes()).hexdigest() for path in (graph, back)]
    assert digests == ["6818505c4c743cb312c06cdf7d3c6c0268140813d6f6c7e63b350b951ec8f853",
                       "6c5a2b72c1208fd7e255627b1829db06cc57d1a3815ab1a60799f4f4622dfea3"]


# labels json writes with escapes (quote, backslash, control characters) or
# keeps as they are (DEL, the line and paragraph separators, non-ASCII and
# astral characters, a slash), and labels that sort before and between them
ESCAPED_LABELS = ['q"uote', "back\\slash", "tab\tstop", "nul\x00", "unit\x1f", "del\x7f",
                  "line\u2028sep", "para\u2029", "café", "ß", "€uro", "😀", "𝔘nicode", "a/b", "",
                  *(f"w{i:02d}" for i in range(21))]
# 2^61 - 1 and four more primes above 2^29, so that an edge in two or more
# topologies weighs more than 2^63
LARGE_PRIMES = [2305843009213693951, 4294967291, 2147483647, 1000000007, 998244353]


def escaped_family(seed=11, density=0.08):
    """A five-topology family over ESCAPED_LABELS with LARGE_PRIMES.  Each
    topology orients the pairs drawn with probability ``density`` along its
    own random order of the labels, and the first one also holds the path
    along its order, so the graph is connected.  Only ``random.random`` is
    drawn, whose sequence from a seed Python keeps across versions."""
    rng = random.Random(seed)
    n = len(ESCAPED_LABELS)
    topologies = []
    for t in range(len(LARGE_PRIMES)):
        order = sorted(ESCAPED_LABELS, key=lambda _: rng.random())
        edges = [[order[i], order[j]] for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density or (t == 0 and j == i + 1)]
        topologies.append({"edges": sorted(edges)})
    return {"vertices": ESCAPED_LABELS, "topologies": topologies, "primes": LARGE_PRIMES}


def test_escaped_family_artifacts_are_pinned(tmp_path, capsys):
    """The `encode`, `decode` and `index` files of a five-topology family
    whose labels json escapes and whose weights pass 2^63, pinned by
    sha256: the edge writers must leave them byte for byte as they were.
    The reported sha256 is that of the file's bytes, and the decoded
    family is the family with its vertices sorted."""
    family, graph, back, index = (tmp_path / name for name in ("f.json", "g.json", "b.json",
                                                               "i.json"))
    obj = escaped_family()
    write(family, obj)
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["decode", "--input", str(graph), "--output", str(back)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    digests = [doc["artifacts"][0]["sha256"] for doc in parse_summaries(capsys.readouterr().out)]
    assert digests == [hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in (graph, back, index)]
    assert json.loads(back.read_text(encoding="utf-8")) == {**obj, "vertices": sorted(obj["vertices"])}
    assert max(rec["w"] for rec in json.loads(graph.read_text(encoding="utf-8"))["edges"]) > 2**63
    assert digests == ["b720cce0bf5e604874e8a345e2e7de64d28f530f1eeab16a2acb636462089281",
                       "35f5b8f8cb3da7352d2cc26efa3ed81befc8ce97aaf67cf514990e0afc009d6a",
                       "a1442094f22c496ec084e341667e8d1448b17b2a99379ff3b834b720c286ffbe"]


def test_an_edge_weight_past_the_float_range_indexes_with_a_finite_weight(tmp_path, capsys):
    """One edge in 20 topologies with the 20 largest primes below 2^62
    weighs about 2^1240, past the float range: its distance weight is
    1 / log(w + 1) taken of the int, finite, and `index` exits 0."""
    primes, k = [], 2**62 - 1
    while len(primes) < 20:
        if multitopo.is_prime(k):
            primes.append(k)
        k -= 2
    family, graph, index = (tmp_path / name for name in ("f.json", "g.json", "i.json"))
    write(family, {"vertices": ["a", "b"], "topologies": [{"edges": [["a", "b"]]}] * 20,
                   "primes": primes})
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    capsys.readouterr()
    w = math.prod(primes)
    assert w > 2**1024
    (edge,) = json.loads(index.read_text(encoding="utf-8"))["edges"]
    assert edge[:2] == ["a", "b"] and edge[2] == 1.0 / math.log(w + 1) and math.isfinite(edge[2])


@pytest.mark.parametrize("subcommand, obj", [
    ("encode", {"vertices": ["a", "\ud800"], "topologies": [{"edges": [["a", "\ud800"]]}],
                "primes": [2]}),
    ("toposort", {"vertices": ["a", "b\udc00"], "edges": [["a", "b\udc00"]]}),
    ("toposort", {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"a|\udbff": 1.0}}),
], ids=["encode", "toposort", "toposort_key"])
def test_a_lone_surrogate_is_a_parse_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                           subcommand, obj):
    """A label or key with an unpaired surrogate escape cannot be written
    as UTF-8, so reading it is a ParseError (exit 2, one JSON error line):
    nothing is encoded or sorted and no output is written."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the work ran before the input was checked")

    monkeypatch.setattr(multitopo, "encode", unreachable)
    monkeypatch.setattr(toposort, "parallel_toposort", unreachable)
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps(obj), encoding="utf-8")  # ASCII, with the surrogate escaped
    assert main([subcommand, "--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "ParseError" and err["exit"] == 2
    assert "lone surrogate" in err["detail"]
    assert not out.exists()


def test_escaped_pairs_and_backslashes_are_not_lone_surrogates(tmp_path, capsys):
    """An escaped surrogate pair is one astral character, and an escaped
    backslash before "ud800" is no escape: such labels encode, and decode
    back to the same labels."""
    labels = ["\U0001f600", "\\ud800", "a"]
    family, graph, back = (tmp_path / name for name in ("f.json", "g.json", "b.json"))
    family.write_text(json.dumps({"vertices": labels, "topologies": [{"edges": [labels[:2]]}],
                                  "primes": [2]}), encoding="utf-8")
    assert "\\ud83d\\ude00" in family.read_text(encoding="utf-8")
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["decode", "--input", str(graph), "--output", str(back)]) == 0
    assert json.loads(back.read_text(encoding="utf-8"))["vertices"] == sorted(labels)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["encode", "--input", "{family}", "--output", "{tmp}/missing/graph.json"],
    ["toposort", "--input", "{dag}", "--output", "{tmp}"],
    ["heat", "--input", "{index}", "--output", "{tmp}/missing/kernel.txt", "--bullet",
     "graphdist", "--level", "3", "--t", "0.5"],
], ids=["missing_dir", "a_directory", "heat_table"])
def test_an_output_that_cannot_be_opened_exits_28(tmp_path, capsys, argv):
    """An --output in a directory that does not exist, or that is itself a
    directory, is an OutputError: exit 28, one JSON error line, and no file
    or directory made."""
    index = index_fixture(tmp_path)
    dag = tmp_path / "dag.json"
    write(dag, THREE_LEAF_DAG)
    capsys.readouterr()
    names = {"family": tmp_path / "family.json", "dag": dag, "index": index, "tmp": tmp_path}
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(**names) for arg in argv]) == 28
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "OutputError" and err["exit"] == 28
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["toposort", "--input", "{dag}", "--output", "{tmp}/missing/order.txt"],
    ["toposort", "--input", "{dag}", "--output", "{tmp}"],
    ["heat", "--input", "{index}", "--output", "{tmp}/missing/kernel.txt", "--bullet",
     "graphdist", "--level", "3", "--t", "0.5"],
], ids=["toposort_missing_dir", "toposort_a_directory", "heat_missing_dir"])
def test_an_unwritable_output_exits_28_before_any_work(tmp_path, capsys, monkeypatch, argv):
    """The --output is checked before the input is read: neither the sort
    nor the heat kernel runs when the file could not be written."""
    from ultraheat import serialize

    index = index_fixture(tmp_path)
    dag = tmp_path / "dag.json"
    write(dag, THREE_LEAF_DAG)
    capsys.readouterr()
    for module, name in ((heat, "heat_kernel"), (toposort, "parallel_toposort"),
                         (serialize, "load_json")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: pytest.fail(
            f"{name} ran before the output was checked"))
    names = {"dag": dag, "index": index, "tmp": tmp_path}
    assert main([arg.format(**names) for arg in argv]) == 28
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "OutputError"


def test_an_output_name_that_is_not_utf8_exits_28(tmp_path, capsys):
    """An --output name from bytes that are not UTF-8 (a lone surrogate
    under surrogateescape) is an OutputError before any work: exit 28, one
    JSON error line on stderr, and no file written."""
    family = tmp_path / "family.json"
    write(family, FAMILY)
    before = sorted(tmp_path.iterdir())
    assert main(["encode", "--input", str(family), "--output", str(tmp_path / "g\udcff.json")]) == 28
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "OutputError" and err["exit"] == 28
    assert sorted(tmp_path.iterdir()) == before


def test_heat_runs_no_eigensolve_larger_than_a_disc_or_the_disc_count(tmp_path, capsys, monkeypatch):
    """On 108 cells (K = 12 discs of s = 9 cells) every eigensolve that
    `heat` runs is at most max(K, s) = 12 wide: its second route works on
    the disc blocks, not on the N x N generator."""
    family, graph, index = (tmp_path / name for name in ("f.json", "g.json", "i.json"))
    write(family, LOW_BRANCHING_FAMILY)
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    capsys.readouterr()
    sizes = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, original=original, **kwargs:
                            sizes.append(np.shape(a)[-1]) or original(a, *args, **kwargs))
    for bullet, measure in (("graphdist", "haar"), ("ultrametric", "nu"), ("adjacency", "haar")):
        assert main(["heat", "--input", str(index), "--output", str(tmp_path / "k.txt"),
                     "--bullet", bullet, "--measure", measure, "--level", "5", "--t", "0.5"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["cells"] == 108 and float(metrics["two_route_gap"]) <= 1e-9
    assert sizes and max(sizes) == 12


# The sha256 of the block file that `heat` writes for each pinned heat table,
# keyed by the sha256 of the table's N x N text, which `expand_heat` writes
# and which `heat` itself wrote before it wrote the block form.
HEAT_BLOCK_DIGESTS = {
    # level 5 of LOW_BRANCHING_FAMILY (108 cells)
    "69d2f6a572a6dd2efa2966eec19265103943131b6eae2fdf32f942a0a1035c55":
        "2ce775f58e22efd7c695a199ade4335f4c7c2bc10eb7352e75adb9936affd374",
    "aed567147590870468b64462c4d788cd9a32ae02a156caf9c3f7b223a2cc26ce":
        "62204aa6aa8246370dab30c98b5c9e56ecee3d63bd3e709bc6323dbe84ffdf4d",
    "fb4213e3c52786a4f49a57dc713edae19cdd0efb7673ed8369361c8c9aa83779":
        "899bdb463e95bea134d63079c744f38e8a7728599e5b206d8a852f701451cce5",
    "35b5ce8f1e44f27eb6e420fb2750be82fe37c524b6489d751bb2c260dbec5741":
        "401ef2494b103bbe9367c900c3f33b4dd467d47fce25093d738d237d143d1712",
    # levels 8, 10 and 11 of low_branching_family(31, 60, 7)
    "9670a678f889045149157dd4d529022a92e42b905d6c59c21ccbff4d6f5125c4":
        "17d9b5b0ded87ddffe88a0248b4f9f835ad702fe509a1f1013a5aabccec4b9c1",
    "7cbefc254e492b4ded22e374093700d58b254c534bfff012db2cf29497709f9c":
        "1ebe817e2110bd93de6d2cb5170e2c6a6f1990c56c20025ebe313610c0997eb9",
    "90ec400fe5787506ee2422f6177eace710253b80c56c39fa54cb4e333eb56439":
        "286160de5a69cf873329ec35169470777c3297f5e4a7c9e86114fd3646ef24fe",
    "19c355ec998ef4cb5c1e68c6fc3a42681043f2f525cba6ad6fd4ea92a77475c9":
        "39671807bb5ebabdec878a8cd8ffe53c2b1629083448199166ef973a7af973f0",
    "029593bd9259845ccd5c02716ca2e2d7752c2254a32fe5d01916f8e5504e3787":
        "a321cc1f64b46f105167affa81672db6cb4b90036a422692f8dc75b8cfe70037",
    "e1c9cdca53166a62fc6bccf7dd263112962e6be1d50beee0291134e250ea6f70":
        "5cf58604c3975413a954b02bd9722bd253dede410708189515e00367e3ead498",
    "568ac5c9bc8666e483a109364dacbcfead545485c6d4ea854959ce1f542292b0":
        "0d4f66ea72fc57cf5e4f2f47b6007cc37698d77c792fa97113933707209fd37b",
    "8c132b50df248bd672b1640f29aff0a0c3478c6e77ee53493161021857390846":
        "27c40087e7f6d77b45fb85d721e35af3f74a2f0e814ed542a4ceb9199310b760",
}


@pytest.mark.parametrize("bullet, measure, t, digest", [
    ("graphdist", "haar", "0.5", "69d2f6a572a6dd2efa2966eec19265103943131b6eae2fdf32f942a0a1035c55"),
    ("graphdist", "haar", "0", "aed567147590870468b64462c4d788cd9a32ae02a156caf9c3f7b223a2cc26ce"),
    ("ultrametric", "nu", "0.5", "fb4213e3c52786a4f49a57dc713edae19cdd0efb7673ed8369361c8c9aa83779"),
    ("ultrametric", "nu", "0", "35b5ce8f1e44f27eb6e420fb2750be82fe37c524b6489d751bb2c260dbec5741"),
])
def test_heat_tables_are_pinned(tmp_path, capsys, bullet, measure, t, digest):
    """The `heat` tables of a low-branching index (p = 3, m = 3) at level
    m + 2 (108 cells), pinned by sha256: the block file `heat` writes,
    whose sha256 the summary reports, and its N x N expansion, which a
    rewrite of the table writer must leave byte for byte as it was."""
    family, graph, index, table, dense = (tmp_path / name for name in
                                          ("f.json", "g.json", "i.json", "k.txt", "dense.txt"))
    write(family, LOW_BRANCHING_FAMILY)
    assert main(["encode", "--input", str(family), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    capsys.readouterr()
    assert main(["heat", "--input", str(index), "--output", str(table), "--bullet", bullet,
                 "--measure", measure, "--level", "5", "--t", t]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["cells"] == 108
    assert hashlib.sha256(table.read_bytes()).hexdigest() == HEAT_BLOCK_DIGESTS[digest]
    assert summary["artifacts"][0]["sha256"] == HEAT_BLOCK_DIGESTS[digest]
    assert expand_heat(table, dense) == digest
    assert hashlib.sha256(dense.read_bytes()).hexdigest() == digest
    assert len(dense.read_bytes().splitlines()) == 108 + 1


LARGER_FAMILY = Path(__file__).with_name("low_branching_31_60_7.json")  # p = 3, m = 7


@pytest.fixture(scope="module")
def larger_index(tmp_path_factory):
    """The index of the benchmark generator's low_branching_family(31, 60, 7),
    whose family file is committed beside the tests."""
    graph, index = (tmp_path_factory.mktemp("larger") / name for name in ("g.json", "i.json"))
    assert run_cli(["encode", "--input", str(LARGER_FAMILY), "--output", str(graph)]).returncode == 0
    assert run_cli(["index", "--input", str(graph), "--output", str(index)]).returncode == 0
    return index


@pytest.mark.parametrize("level, measure, digest", [
    (10, "haar", "7cbefc254e492b4ded22e374093700d58b254c534bfff012db2cf29497709f9c"),
    (10, "nu", "90ec400fe5787506ee2422f6177eace710253b80c56c39fa54cb4e333eb56439"),
    (11, "haar", "19c355ec998ef4cb5c1e68c6fc3a42681043f2f525cba6ad6fd4ea92a77475c9"),
    (11, "nu", "029593bd9259845ccd5c02716ca2e2d7752c2254a32fe5d01916f8e5504e3787"),
])
def test_larger_heat_tables_are_pinned(larger_index, tmp_path, capsys, level, measure, digest):
    """The graphdist `heat --t 0.5` tables of low_branching_family(31, 60, 7)
    at levels 10 (1,620 cells) and 11 (4,860 cells), pinned by the sha256
    that `heat` reports of the block file it writes (under 80 kB) and by
    that of its expansion, here written to the null device (the level-11
    N x N text is 477.5 MB)."""
    table = tmp_path / "kernel.txt"
    assert main(["heat", "--input", str(larger_index), "--output", str(table), "--bullet",
                 "graphdist", "--measure", measure, "--level", str(level), "--t", "0.5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["cells"] == 60 * 3 ** (level - 7)
    assert summary["artifacts"][0]["sha256"] == HEAT_BLOCK_DIGESTS[digest]
    assert table.stat().st_size < 80_000
    assert expand_heat(table, os.devnull) == digest


@pytest.mark.parametrize("bullet, measure, t, digest", [
    ("ultrametric", "haar", "0.5", "e1c9cdca53166a62fc6bccf7dd263112962e6be1d50beee0291134e250ea6f70"),
    ("adjacency", "haar", "0.5", "568ac5c9bc8666e483a109364dacbcfead545485c6d4ea854959ce1f542292b0"),
    ("graphdist", "nu", "0", "8c132b50df248bd672b1640f29aff0a0c3478c6e77ee53493161021857390846"),
])
def test_level_10_heat_tables_of_every_bullet_are_pinned(larger_index, tmp_path, capsys, bullet,
                                                         measure, t, digest):
    """The level-10 `heat` tables (1,620 cells: 60 discs of 27) of
    low_branching_family(31, 60, 7) under the ultrametric and adjacency
    kernels, and the t = 0 table (the identity over nu), pinned by the
    sha256 that `heat` reports of the block file it writes and by that of
    its expansion, written to the null device."""
    table = tmp_path / "kernel.txt"
    assert main(["heat", "--input", str(larger_index), "--output", str(table), "--bullet", bullet,
                 "--measure", measure, "--level", "10", "--t", t]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["cells"] == 1620
    assert summary["artifacts"][0]["sha256"] == HEAT_BLOCK_DIGESTS[digest]
    assert expand_heat(table, os.devnull) == digest


@pytest.mark.parametrize("bullet, measure, digest", [
    ("ultrametric", "nu", "9c1bd9b392b063ad364527491780ad073fa4d7608af3b5ca97a67b290bfb9518"),
    ("graphdist", "haar", "79cf33bd242b0b06ff3c256ddd9b112fdc258aa9d36f7a9900a70b6984442f3e"),
])
def test_level_9_spectra_are_pinned(larger_index, tmp_path, capsys, bullet, measure, digest):
    """The two `spectrum` calls of the benchmark's spectral-heat round, at
    level 9 (540 cells: 60 discs of 9) of low_branching_family(31, 60, 7),
    pinned by sha256: the table carries every eigenvalue and residual, so
    a rewrite of the residuals or of the coarse columns must leave their
    bits as they were."""
    out = tmp_path / "spectrum.tsv"
    assert main(["spectrum", "--input", str(larger_index), "--output", str(out), "--bullet", bullet,
                 "--measure", measure, "--level", "9"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["cells"] == summary["metrics"]["eigenpairs"] == 540
    assert summary["artifacts"][0]["sha256"] == digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["spectrum", "--level", "8"],
     "b29b3022e86c0d62db39370dcf8f4c6441d9f7c235f53c222149cea75786bfed"),
    (["heat", "--level", "8", "--t", "0.5"],
     "9670a678f889045149157dd4d529022a92e42b905d6c59c21ccbff4d6f5125c4"),
    (["bounds", "--level", "8", "--swap", "graphdist,ultrametric"],
     "7bc83d7c703d4be52b96cdbc890dd1277c3cf3763248f12ccb41d071ad9feb02"),
    (["bounds", "--level", "8", "--truncate", "3"],
     "8f8dd50e1bff5505d4101dab9487d3d45de060784bb64c82394f5cbafc098833"),
    (["converge", "--levels", "8,9", "--reference", "9"],
     "dc6c8aa49d700244c4042e777e96feeb6b9397b0b4f5e0f93a6afb807edaf61c"),
], ids=["spectrum", "heat", "bounds", "truncate", "converge"])
def test_graphdist_artifacts_are_pinned(larger_index, tmp_path, capsys, argv, digest):
    """The artifacts of every subcommand that builds graph distances, on the
    index of low_branching_family(31, 60, 7) (180 cells at level 8), pinned
    by sha256: `bounds --swap` builds them for its graphdist side, and the
    others run under `--bullet graphdist`.  The summary on stdout is the
    indent-2 text that json.dumps writes of it, with sorted keys.  The
    `heat` artifact is its block file, pinned by its expansion's digest."""
    out = tmp_path / "artifact"
    bullet = [] if "--swap" in argv else ["--bullet", "graphdist"]
    assert main([*argv, *bullet, "--input", str(larger_index), "--output", str(out)]) == 0
    text = capsys.readouterr().out
    summary = json.loads(text)
    assert text == json.dumps(summary, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if argv[0] == "heat":
        assert expand_heat(out, os.devnull) == digest
        digest = HEAT_BLOCK_DIGESTS[digest]
    assert summary["artifacts"][0]["sha256"] == digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_a_graph_distance_that_overflows_exits_23_not_7(tmp_path, capsys):
    """d(a, c) = 1e308 + 1.5e308 is not a finite float: the graphdist kernel
    is refused as a BadWeight naming the pair, while the ultrametric one,
    built from the tree's radii, runs; the graph is connected."""
    index = tmp_path / "index.json"
    index.write_text('{"version": 3, "vertices": ["a", "b", "c"], '
                     '"edges": [["a", "b", 1e308], ["b", "c", 1.5e308]], "p": 2, "m": 2}',
                     encoding="utf-8")
    argv = ["spectrum", "--input", str(index), "--output", str(tmp_path / "s.tsv"), "--level", "3"]
    assert main([*argv, "--bullet", "ultrametric"]) == 0
    capsys.readouterr()
    assert main([*argv, "--bullet", "graphdist"]) == 23
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
        "error": "BadWeight",
        "detail": "graph distance from 'a' to 'c' overflows the largest float",
        "exit": 23,
    }


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_heat_at_4860_cells_holds_no_n_by_n_array(larger_index):
    """`heat` at level 11 (4,860 cells: one N x N float array is 189 MB)
    peaks under 150 MB in a fresh interpreter.  The interpreter reads its
    own high-water mark, VmHWM: its ru_maxrss would keep the resident size
    of this test process at the fork."""
    code = ("import re, sys\nfrom ultraheat.cli import main\nrc = main(sys.argv[1:])\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1], "
            "file=sys.stderr)\nsys.exit(rc)")
    proc = run_python(["-c", code, "heat", "--input", str(larger_index), "--output", os.devnull,
                       "--bullet", "graphdist", "--level", "11", "--t", "0.5"])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) < 150 * 1024


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000], ids=["utf16_bom", "deep"])
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, content):
    """Bytes that are not UTF-8, and nesting deeper than the decoder's
    recursion limit, exit 2 with a ParseError instead of a traceback."""
    graph = tmp_path / "graph.json"
    graph.write_bytes(content)
    assert main(["index", "--input", str(graph), "--output", str(tmp_path / "i.json")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParseError" and err["exit"] == 2


@pytest.mark.parametrize(
    "swap", ["foo,ultrametric", "ultrametric", "ultrametric,graphdist,adjacency", "ultrametric,"]
)
def test_bounds_swap_needs_two_bullet_names(tmp_path, capsys, swap):
    index = index_fixture(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--input", str(index), "--output", str(tmp_path / "b.json"),
              "--level", "4", "--swap", swap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--swap" in err and "Traceback" not in err


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path, capsys):
    from ultraheat import cli

    cli.build_parser.cache_clear()
    dag = tmp_path / "dag.json"
    write(dag, THREE_LEAF_DAG)
    out = tmp_path / "order.txt"
    base = ["toposort", "--input", str(dag), "--output", str(out)]
    assert main(base + ["--parallelism", "4", "--seeds", "c"]) == 0
    assert main(base) == 0
    first, second = parse_summaries(capsys.readouterr().out)[-2:]
    assert first["metrics"]["parallelism"] == 4
    assert second["metrics"]["parallelism"] == 1  # the default, not the last value seen
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("argv", [
    ["converge", "--bullet", "ultrametric", "--levels", "4,x", "--reference", "5"],
    ["converge", "--bullet", "ultrametric", "--levels", "", "--reference", "5"],
    ["decode", "--primes", "a,3"],
], ids=["levels-not-int", "levels-empty", "primes-not-int"])
def test_integer_lists_that_do_not_parse_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--input", str(tmp_path / "in.json"), "--output", str(out), *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and ("--levels" if argv[0] == "converge" else "--primes") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_subnormal_time_still_gets_a_grid(tmp_path, capsys):
    index = index_fixture(tmp_path)
    bounds = tmp_path / "bounds.json"
    assert main(["bounds", "--input", str(index), "--output", str(bounds), "--level", "4",
                 "--truncate", "1", "--t", "1e-320"]) == 0
    assert json.loads(bounds.read_text())["theoretical_bound"] > 0.0
    assert main(["converge", "--input", str(index), "--output", str(tmp_path / "c.tsv"),
                 "--bullet", "ultrametric", "--levels", "4,5", "--reference", "5",
                 "--tau", "1e-320"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("dag_obj, components", [
    ({"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]}, 2),
    # three components, one of them an isolated vertex, and explicit weights
    ({"vertices": ["e", "a", "b", "c", "d"], "edges": [["b", "a"], ["c", "d"]],
      "weights": {"a|b": 0.5, "c|d": 2.0}}, 3),
])
def test_toposort_without_an_index_joins_the_components_under_one_root(
        tmp_path, capsys, monkeypatch, dag_obj, components):
    seen = []
    original = toposort.parallel_toposort
    monkeypatch.setattr(toposort, "parallel_toposort",
                        lambda dag, dend, *args, **kw: seen.append(dend)
                        or original(dag, dend, *args, **kw))
    dag = tmp_path / "dag.json"
    write(dag, dag_obj)
    out = tmp_path / "order.txt"
    assert main(["toposort", "--input", str(dag), "--output", str(out)]) == 0
    order = out.read_text().split()
    assert sorted(order) == sorted(dag_obj["vertices"])
    assert all(order.index(u) < order.index(v) for u, v in dag_obj["edges"])
    assert parse_summaries(capsys.readouterr().out)[-1]["metrics"]["valid_linear_extension"] is True
    [dend] = seen
    assert len(dend.root.children) == components
    assert dend.root.radius > max(dag_obj.get("weights", {"": 1.0}).values())


def test_index_of_a_disconnected_graph_still_exits_7(tmp_path, capsys):
    fam, graph = tmp_path / "family.json", tmp_path / "graph.json"
    write(fam, {"vertices": ["a", "b", "c", "d"],
                "topologies": [{"edges": [["a", "b"], ["c", "d"]]}], "primes": [2]})
    assert main(["encode", "--input", str(fam), "--output", str(graph)]) == 0
    assert main(["index", "--input", str(graph), "--output", str(tmp_path / "index.json")]) == 7
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DisconnectedGraph"


def test_index_and_toposort_of_ten_thousand_vertices_are_fast(tmp_path, capsys):
    """A seeded graph of 10^4 vertices and 5 * 10^4 edges of distinct
    weights indexes to p = 2 and m = 9999, one tree level per merge: the
    index file holds no digits, so `index` and `toposort --index` each
    finish within 10 s and the file stays under 5 MB."""
    import time

    import numpy as np

    rng = np.random.default_rng(2024)
    n, m = 10_000, 50_000
    labels = [f"v{i:05d}" for i in range(n)]
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}  # a random spanning tree
    while len(pairs) < m:
        i, j = sorted(rng.integers(n, size=2).tolist())
        if i != j:
            pairs.add((i, j))
    pairs = sorted(pairs)
    graph, index, dag, out = (tmp_path / name for name in ("g.json", "i.json", "d.json", "o.txt"))
    write(graph, {
        "vertices": labels,
        "edges": [{"ends": [labels[i], labels[j]], "w": int(w)}
                  for (i, j), w in zip(pairs, rng.permutation(m) + 1)],
        "d": {l: [0] for l in labels},
    })
    write(dag, {"vertices": labels, "edges": [[labels[i], labels[j]] for i, j in pairs[::5]]})
    start = time.perf_counter()
    assert main(["index", "--input", str(graph), "--output", str(index)]) == 0
    assert time.perf_counter() - start < 10.0
    metrics = parse_summaries(capsys.readouterr().out)[-1]["metrics"]
    assert (metrics["p"], metrics["m"]) == (2, n - 1)
    assert index.stat().st_size < 5_000_000
    start = time.perf_counter()
    assert main(["toposort", "--input", str(dag), "--output", str(out), "--index", str(index)]) == 0
    assert time.perf_counter() - start < 10.0
    assert parse_summaries(capsys.readouterr().out)[-1]["metrics"]["valid_linear_extension"] is True
