"""The benchmark's four workloads.

A workload builds its inputs from the seed in ``setup`` (untimed, checked
against its stated sizes) and returns the fixed list of calls of one round
from ``calls``.  Every call is checked after it returns; the worker repeats
rounds of the same calls and compares each call's artifact digest across
rounds.

Sizes are chosen so that a round takes 0.4 to 2 seconds on the 2-core
reference machine, giving 12 to 50 rounds in a 25 s run.  ``small``
sizes are for the smoke test only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ultraheat import cli, multitopo, padic, serialize, toposort, ultraindex

import gen

TOL = 1e-9  # residuals, two-route gap, row-sum defect, bound slack

SIZES = {
    "full": {
        "family-index": {"n": 200, "topologies": 5, "density": 0.02, "p": (90, 211), "m": (5, 20)},
        "family-sort": {
            "family": {"n": 200, "topologies": 5, "density": 0.02, "p": (90, 211), "m": (5, 20)},
            "low_branching": {"n": 150, "depth": 7},
            "dags": 6, "seed_sets": (1, 4, 16), "parallelism": (1, 2),
        },
        "spectral-heat": {"n": 60, "depth": 7, "N": 540},
        "certify": {"n": 20, "depth": 5, "N_ref": 540},
    },
    "small": {
        "family-index": {"n": 60, "topologies": 5, "density": 0.05, "p": (11, 61), "m": (3, 20)},
        "family-sort": {
            "family": {"n": 60, "topologies": 5, "density": 0.05, "p": (11, 61), "m": (3, 20)},
            "low_branching": {"n": 30, "depth": 4},
            "dags": 3, "seed_sets": (1, 4), "parallelism": (1, 2),
        },
        "spectral-heat": {"n": 12, "depth": 3, "N": 108},
        "certify": {"n": 10, "depth": 3, "N_ref": 270},
    },
}


class SizeMismatch(RuntimeError):
    """A generated input does not have the workload's stated size."""


def expect(name: str, value, wanted) -> None:
    ok = wanted[0] <= value <= wanted[1] if isinstance(wanted, tuple) else value == wanted
    if not ok:
        raise SizeMismatch(f"{name} = {value}, expected {wanted}")


@dataclass
class Call:
    op: str  # the operation whose <op>_s this call adds to
    key: str  # calls with one key must produce one artifact
    run: Callable[[], object]
    # output -> (failure messages, empty when correct; sha256 of the artifact)
    check: Callable[[object], tuple]


def run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.dir = Path(workdir)
        self.size = SIZES[scale][self.name]
        self.sizes: dict = {}  # stated sizes, as measured on the inputs
        self.artifact_bytes: dict = {}  # call key -> bytes of its artifact
        self.cert: dict = {}  # certificate extremes seen by the checks
        self.counts: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def cli_call(self, op: str, key: str, argv: list[str], check) -> Call:
        def checked(out):
            rc, text = out
            if rc != 0:
                return [f"{key}: exit {rc}"], None
            summary = json.loads(text)
            artifact = summary["artifacts"][0]
            data = Path(artifact["path"]).read_bytes()
            self.artifact_bytes[key] = len(data)
            digest = hashlib.sha256(data).hexdigest()
            problems = [f"{key}: {msg}" for msg in check(summary["metrics"])]
            if digest != artifact["sha256"]:
                problems.append(f"{key}: reported sha256 is not the artifact's")
            return problems, digest

        return Call(op, key, lambda: run_cli([op, *argv]), checked)

    def note_cert(self, name: str, value: float, keep=max) -> None:
        self.cert[name] = keep(self.cert.get(name, value), value)

    def cli_index(self, family_obj: dict, stem: str) -> dict:
        """Encode and index a family through the CLI (set-up work)."""
        _write_json(self.dir / f"{stem}_family.json", family_obj)
        for argv in (
            ["encode", "--input", self.path(f"{stem}_family.json"), "--output", self.path(f"{stem}_graph.json")],
            ["index", "--input", self.path(f"{stem}_graph.json"), "--output", self.path(f"{stem}_index.json")],
        ):
            rc, text = run_cli(argv)
            if rc != 0:
                raise SizeMismatch(f"set-up {argv[0]} exited {rc}")
        return json.loads(text)["metrics"]


# --- family-index ---------------------------------------------------------------


def _check_family_size(size: dict, fam: dict) -> None:
    n = size["n"]
    expect("n", len(fam["vertices"]), n)
    expect("topologies", len(fam["topologies"]), size["topologies"])
    expected_edges = size["density"] * n * (n - 1) / 2
    for topo in fam["topologies"]:
        expect("edges per topology", len(topo["edges"]), (0.7 * expected_edges, 1.3 * expected_edges))


class FamilyIndex(Workload):
    """encode, decode and index of one random five-topology family."""

    name = "family-index"

    def setup(self) -> None:
        s = self.size
        self.family = gen.random_family(self.seed, s["n"], s["topologies"], s["density"])
        _check_family_size(s, self.family)
        _write_json(self.dir / "family.json", self.family)
        self.sizes = {"n": s["n"], "topologies": s["topologies"]}

    def calls(self) -> list[Call]:
        s = self.size
        fam_path, graph_path = self.path("family.json"), self.path("graph.json")
        back_path, index_path = self.path("family_back.json"), self.path("index.json")

        def check_encode(metrics):
            ok = metrics["vertices"] == s["n"] and metrics["topologies"] == s["topologies"]
            return [] if ok else [f"summary {metrics}"]

        def check_decode(metrics):
            back = json.loads(Path(back_path).read_text(encoding="utf-8"))
            return [] if back == self.family else ["decode(encode(family)) != family"]

        def check_index(metrics):
            self.sizes.update(p=metrics["p"], m=metrics["m"])
            try:
                expect("vertices", metrics["vertices"], s["n"])
                expect("p", metrics["p"], s["p"])
                expect("m", metrics["m"], s["m"])
            except SizeMismatch as exc:
                return [str(exc)]
            return []

        return [
            self.cli_call("encode", "encode", ["--input", fam_path, "--output", graph_path], check_encode),
            self.cli_call("decode", "decode", ["--input", graph_path, "--output", back_path], check_decode),
            self.cli_call("index", "index", ["--input", graph_path, "--output", index_path], check_index),
        ]


# --- family-sort ----------------------------------------------------------------


def _library_index(family_obj: dict):
    graph = multitopo.encode(serialize.family_from_obj(family_obj))
    dend = ultraindex.build_dendrogram(
        ultraindex.subdominant_ultrametric(ultraindex.graph_distances(graph))
    )
    return dend, padic.embed(dend)


def _dag(obj: dict) -> toposort.Dag:
    return toposort.Dag(tuple(obj["vertices"]), frozenset(tuple(e) for e in obj["edges"]))


class FamilySort(Workload):
    """parallel_toposort over two kinds of index, at parallelism 1 and 2."""

    name = "family-sort"

    def setup(self) -> None:
        s = self.size
        fs, ls = s["family"], s["low_branching"]
        family = gen.random_family(self.seed, fs["n"], fs["topologies"], fs["density"])
        _check_family_size(fs, family)
        wide, wide_assign = _library_index(family)
        expect("family p", wide_assign.p, fs["p"])
        expect("family m", wide_assign.m, fs["m"])
        narrow, narrow_assign = _library_index(gen.low_branching_family(self.seed, ls["n"], ls["depth"]))
        expect("low-branching p", narrow_assign.p, 3)
        expect("low-branching m", narrow_assign.m, ls["depth"])

        jobs = [
            (f"family{i}", wide, _dag({"vertices": family["vertices"], "edges": t["edges"]}))
            for i, t in enumerate(family["topologies"])
        ]
        for j, density in enumerate(np.linspace(0.05, 0.3, s["dags"])):
            dag = gen.random_dag(self.seed * 1000 + j, ls["n"], float(density))
            jobs.append((f"random{j}", narrow, _dag(dag)))
        rng = np.random.default_rng(self.seed)
        self.jobs = []
        for name, dend, dag in jobs:
            kahn = toposort.kahn_sort(dag)
            for k in s["seed_sets"]:
                seeds = sorted(rng.choice(dag.vertices, size=k, replace=False).tolist())
                self.jobs.append((f"{name}/seeds{k}", dend, dag, seeds, kahn))
        self.counts = {"sorts": 0, "same_as_kahn": 0}
        self.sizes = {
            "family_n": fs["n"], "family_p": wide_assign.p, "family_m": wide_assign.m,
            "low_branching_n": ls["n"], "low_branching_p": narrow_assign.p,
            "low_branching_m": narrow_assign.m, "sort_inputs": len(self.jobs),
        }

    def calls(self) -> list[Call]:
        out = []
        for key, dend, dag, seeds, kahn in self.jobs:
            for par in self.size["parallelism"]:
                run = lambda dend=dend, dag=dag, seeds=seeds, par=par: toposort.parallel_toposort(
                    dag, dend, seeds, parallelism=par
                )
                out.append(Call("toposort", key, run, self._checker(key, dag, kahn)))
        return out

    def _checker(self, key, dag, kahn):
        def check(order):
            self.counts["sorts"] += 1
            self.counts["same_as_kahn"] += order == kahn
            digest = _sha("\n".join(map(str, order)))
            pos = {v: i for i, v in enumerate(order)}
            if len(pos) != len(dag.vertices) or len(order) != len(dag.vertices):
                return [f"{key}: order does not list every vertex once"], digest
            if any(pos[u] >= pos[v] for u, v in dag.edges):
                return [f"{key}: order is not a linear extension"], digest
            return [], digest

        return check


# --- spectral-heat --------------------------------------------------------------


class SpectralHeat(Workload):
    """Two spectra and one heat kernel at level m+2 of a low-branching index."""

    name = "spectral-heat"

    def setup(self) -> None:
        s = self.size
        summary = self.cli_index(gen.low_branching_family(self.seed, s["n"], s["depth"]), "lb")
        expect("n", summary["vertices"], s["n"])
        expect("p", summary["p"], 3)
        expect("m", summary["m"], s["depth"])
        self.level = summary["m"] + 2
        expect("N", s["n"] * summary["p"] ** 2, s["N"])
        self.sizes = {"n": s["n"], "p": summary["p"], "m": summary["m"], "level": self.level, "N": s["N"]}

    def calls(self) -> list[Call]:
        index, level, N = self.path("lb_index.json"), str(self.level), self.size["N"]

        def check_spectrum(metrics):
            residual = float(metrics["max_residual"])
            self.note_cert("max_residual", residual)
            bad = []
            if not metrics["cells"] == metrics["eigenpairs"] == N:
                bad.append(f"{metrics['eigenpairs']} eigenpairs over {metrics['cells']} cells, expected {N}")
            if not residual <= TOL:
                bad.append(f"residual {residual}")
            return bad

        def check_heat(metrics):
            gap, defect = float(metrics["two_route_gap"]), float(metrics["row_sum_defect"])
            self.note_cert("two_route_gap", gap)
            self.note_cert("row_sum_defect", defect)
            bad = [] if metrics["cells"] == N else [f"{metrics['cells']} cells, expected {N}"]
            if not gap <= TOL:
                bad.append(f"two-route gap {gap}")
            if not defect <= TOL:
                bad.append(f"row-sum defect {defect}")
            return bad

        return [
            self.cli_call("spectrum", "spectrum-ultrametric-nu", [
                "--input", index, "--output", self.path("spectrum_um.tsv"), "--bullet", "ultrametric",
                "--measure", "nu", "--level", level,
            ], check_spectrum),
            self.cli_call("spectrum", "spectrum-graphdist-haar", [
                "--input", index, "--output", self.path("spectrum_gd.tsv"), "--bullet", "graphdist",
                "--measure", "haar", "--level", level,
            ], check_spectrum),
            self.cli_call("heat", "heat-graphdist", [
                "--input", index, "--output", self.path("kernel.txt"), "--bullet", "graphdist",
                "--level", level, "--t", "0.5",
            ], check_heat),
        ]


# --- certify ----------------------------------------------------------------------


class Certify(Workload):
    """Every truncation bound, one kernel-swap bound and a convergence study."""

    name = "certify"

    def setup(self) -> None:
        s = self.size
        summary = self.cli_index(gen.low_branching_family(self.seed, s["n"], s["depth"]), "lb")
        expect("n", summary["vertices"], s["n"])
        expect("p", summary["p"], 3)
        expect("m", summary["m"], s["depth"])
        expect("max_level", summary["max_level"], s["depth"])
        self.m, self.max_level = summary["m"], summary["max_level"]
        expect("N_ref", s["n"] * summary["p"] ** 3, s["N_ref"])
        self.sizes = {"n": s["n"], "p": summary["p"], "m": self.m, "max_level": self.max_level,
                      "N": s["n"] * summary["p"], "N_ref": s["N_ref"]}

    def calls(self) -> list[Call]:
        index, m = self.path("lb_index.json"), self.m

        def check_bounds(metrics):
            slack = float(metrics["slack"])
            self.note_cert("min_slack", slack, keep=min)
            return [] if slack >= -TOL else [f"slack {slack}"]

        table = self.path("convergence.tsv")

        def check_converge(metrics):
            lines = Path(table).read_text(encoding="utf-8").splitlines()[1:]
            gaps = [float(line.split("\t")[1]) for line in lines]
            if len(gaps) != 3 or any(a < b for a, b in zip(gaps, gaps[1:])):
                return [f"gaps {gaps} are not non-increasing"]
            return []

        calls = [
            self.cli_call("bounds", f"truncate{ell}", [
                "--input", index, "--output", self.path(f"truncate{ell}.json"),
                "--level", str(m + 1), "--truncate", str(ell),
            ], check_bounds)
            for ell in range(1, self.max_level + 1)
        ]
        calls.append(self.cli_call("bounds", "swap", [
            "--input", index, "--output", self.path("swap.json"), "--level", str(m + 2),
            "--swap", "graphdist,ultrametric",
        ], check_bounds))
        calls.append(self.cli_call("converge", "converge", [
            "--input", index, "--output", table, "--bullet", "ultrametric", "--measure", "nu",
            "--levels", f"{m + 1},{m + 2},{m + 3}", "--reference", str(m + 3),
        ], check_converge))
        return calls


WORKLOADS = {cls.name: cls for cls in (FamilyIndex, FamilySort, SpectralHeat, Certify)}
