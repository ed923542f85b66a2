"""Any input and any argument value: mutations of the small committed
inputs and of the argument values, run through ``cli.main`` across all
eight subcommands.  Each run returns 0 or a code of ``EXIT_CODES``, prints
at most one line to stderr (a failure's JSON error line; a warning would
print more), writes no artifact when it fails and ends within a wall
bound."""

import functools
import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ultraheat import padic, ultraindex
from ultraheat.cli import EXIT_CODES, main
from ultraheat.multitopo import encode
from ultraheat.serialize import family_from_obj, graph_from_obj, graph_text, index_text

from test_cli import FAMILY, GRAPH, INDEX, THREE_LEAF_DAG, _json_paths

PATH_LABELS = [f"v{i:04d}" for i in range(1025)]
PATH_GRAPH = {  # a path whose weights fall along it: p = 2, m = 1024, p^m past the float range
    "vertices": PATH_LABELS,
    "d": {v: [0] for v in PATH_LABELS},
    "edges": [{"ends": [PATH_LABELS[i], PATH_LABELS[i + 1]], "w": i + 1} for i in range(1024)],
}


def index_obj(graph):
    """The index file's value of a graph, as `index` writes it."""
    weights = ultraindex.default_distance_weights(graph)
    assign = padic.embed(ultraindex.graph_dendrogram(graph, weights))
    return json.loads(index_text(assign, weights)), assign.m


@functools.cache
def bases() -> dict:
    """The valid inputs of each kind, by name, with the disc depth m of
    each index: the 3-vertex family of the CI and its graph and index,
    the committed low_branching_family(31, 60, 7) and its graph and
    index, the index of a path of 1,025 vertices and a 3-vertex DAG."""
    family_obj = json.loads(Path(__file__).with_name("low_branching_31_60_7.json").read_text())
    family = family_from_obj(family_obj)
    graph = encode(family)
    return {
        "family": {"three": (FAMILY, None), "low": (family_obj, None)},
        "graph": {"three": (GRAPH, None),
                  "low": (json.loads(graph_text(graph, family.primes)), None)},
        "index": {"three": (INDEX, 2), "low": index_obj(graph),
                  "path": index_obj(graph_from_obj(PATH_GRAPH)[0])},
        "dag": {"three": (THREE_LEAF_DAG, None)},
    }


KIND = {"encode": "family", "decode": "graph", "index": "graph", "toposort": "dag",
        "spectrum": "index", "heat": "index", "bounds": "index", "converge": "index"}

# values a mutation writes: every JSON type, numbers at and past each range
# the readers check, and labels of the bases
VALUES = [None, True, False, 0, 1, -1, 2, 3, 0.5, -0.0, 1e-300, 1e308, math.nan, math.inf,
          -math.inf, 10**400, -10**400, 2**63, 2**89 - 1, "", "a", "b", "v00",
          [], {}, ["a", "b"], [["a", "b"]], {"edges": []}]
# argument values: each draw is a valid one or, as often, one that a
# subcommand must refuse
GOOD_REALS, BAD_REALS = ["1", "0.5", "2.5", "1e-300"], ["0", "-0.0", "-1", "1e308", "inf", "nan"]
BULLETS = ["ultrametric", "graphdist", "adjacency"]
BAD_LEVELS = ["-1", "0", "40", "10000000", "9999999999999999999"]


def edit(obj, op: str, path: tuple, value=None):
    """A copy of the JSON value with one edit at the path: "set" writes the
    value there, "drop" removes the item, "copy" appends a second copy of
    a list's item to the list.  Edits of the root replace the file."""
    root = {"file": json.loads(json.dumps(obj))}
    *keys, last = ("file", *path)
    parent = root
    for key in keys:
        parent = parent[key]
    if op == "set":
        parent[last] = value
    elif op == "drop" and last != "file":
        del parent[last]
    elif op == "copy" and type(parent) is list:
        parent.append(json.loads(json.dumps(parent[last])))
    return root["file"]


def options(**values) -> list:
    """Command-line options as "--name=value", so that a value such as
    "-1,3" is not read as an option."""
    return [f"--{name}={value}" for name, value in values.items()]


@st.composite
def runs(draw):
    """A subcommand, the name of its base input, up to two edits of that
    input, the other arguments, and no expected exit code."""
    command = draw(st.sampled_from(list(KIND)))
    # the path's runs take up to half a second each: it is example (c)'s input only
    base = draw(st.sampled_from(sorted(set(bases()[KIND[command]]) - {"path"})))
    obj, m = bases()[KIND[command]][base]
    edits = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        step = (draw(st.sampled_from(["set", "set", "drop", "copy"])),
                draw(st.sampled_from(list(_json_paths(obj)))), draw(st.sampled_from(VALUES)))
        edits.append(step)
        obj = edit(obj, *step)
    real = st.sampled_from(GOOD_REALS) | st.sampled_from(BAD_REALS)
    if m is not None:
        level = st.sampled_from([str(m + 1), str(m + 2)]) | st.sampled_from(
            [str(m - 1), str(m), *BAD_LEVELS])
        kernel = dict(bullet=draw(st.sampled_from(BULLETS)), alpha=draw(real))
    if command == "decode" and draw(st.booleans()):
        args = options(primes=",".join(draw(st.lists(
            st.sampled_from(["2", "3", "5", "4", "1", "0", "-2"]), min_size=1, max_size=3))))
    elif command == "toposort":
        args = options(parallelism=draw(st.sampled_from(["1", "2", "3"])))
        if draw(st.booleans()):
            args += options(seeds=",".join(draw(st.lists(st.sampled_from(["a", "b", "c", "zz"]),
                                                         min_size=1, max_size=2))))
    elif command == "bounds":
        if draw(st.booleans()):
            mode = dict(truncate=draw(st.sampled_from([m - 1, 1, -1, 0, m])))
        else:
            mode = dict(swap=f"{draw(st.sampled_from(BULLETS))},{draw(st.sampled_from(BULLETS))}")
        args = options(**mode, **kernel, level=draw(level), t=draw(real),
                       seed=draw(st.sampled_from([0, 1, 2**64])))
    elif command in ("spectrum", "heat", "converge"):
        kernel["measure"] = draw(st.sampled_from(["haar", "nu"]))
        if command == "spectrum":
            args = options(**kernel, level=draw(level))
        elif command == "heat":
            args = options(**kernel, level=draw(level), t=draw(real))
        else:
            args = options(**kernel, levels=",".join(draw(st.lists(level, min_size=1, max_size=3))),
                           reference=draw(level), tau=draw(real))
    else:
        args = []
    return command, base, tuple(edits), args, None


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=runs())
# (a) an index weight past the float range, written as digits: exit 2
@example(run=("spectrum", "three", (("set", ("edges", 0, 2), 10**400),),
              ["--bullet", "ultrametric", "--level", "3"], 2))
# (b) a DAG weight past the float range: exit 23
@example(run=("toposort", "three", (("set", ("weights", "b|c"), 10**400),), [], 23))
# (c) nu masses past the float range, p^m = 2^1024: exit 26
@example(run=("spectrum", "path", (), ["--bullet", "ultrametric", "--measure", "nu",
                                       "--level", "1025"], 26))
# (d) a huge level: exit 24 at once
@example(run=("spectrum", "low", (), ["--bullet", "ultrametric", "--level", "10000000"], 24))
# a time at which e^(lambda t) of a rounding-positive eigenvalue overflows:
# no warning, and no table whose gap is NaN nor bound whose slack is
@example(run=("heat", "low", (), ["--bullet", "ultrametric", "--level", "8", "--t", "1e308"], 27))
@example(run=("bounds", "low", (), ["--swap", "ultrametric,ultrametric", "--level", "8",
                                    "--t", "1e308"], 27))
@example(run=("bounds", "low", (), ["--swap", "graphdist,ultrametric", "--level", "8",
                                    "--t", "1e308"], 27))
@example(run=("bounds", "low", (), ["--truncate", "1", "--level", "8", "--t", "1e308"], 27))
@example(run=("converge", "low", (), ["--bullet", "ultrametric", "--levels", "8",
                                      "--reference", "8", "--tau", "1e308"], 27))
def test_any_input_and_argument_ends_with_a_listed_code(tmp_path, capsys, run):
    """Every run returns 0 or a code of EXIT_CODES; a failure prints one
    JSON error line and no summary and leaves no artifact; a success prints
    one summary whose digest is the artifact's; no run warns; and each run
    ends within 10 s.  The examples give their exit code."""
    command, base, edits, args, expected = run
    obj = bases()[KIND[command]][base][0]
    for step in edits:
        obj = edit(obj, *step)
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", str(path), "--output", str(out), *args])
    elapsed, printed = time.perf_counter() - start, capsys.readouterr()
    assert expected in (None, code)
    assert elapsed < 10.0
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert printed.err == ""
        summary = json.loads(printed.out)
        assert summary["artifacts"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    else:
        assert code in EXIT_CODES.values()
        err = printed.err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == code
        assert printed.out == "" and not out.exists()


@pytest.mark.parametrize("subcommand", ["bounds", "converge"])
def test_a_negative_seed_is_refused_as_an_argument(tmp_path, capsys, subcommand):
    """The generator takes no negative seed, so the parser refuses one with
    exit 2, before any input is read."""
    mode = ["--truncate", "1", "--level", "3"] if subcommand == "bounds" else [
        "--bullet", "ultrametric", "--levels", "3", "--reference", "3"]
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, "--input", str(tmp_path / "absent.json"), "--output",
              str(tmp_path / "out"), *mode, "--seed", "-1"])
    assert exit_.value.code == 2
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
