"""Smoke test of the benchmark itself, at small sizes (under a minute).

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that the generators are
deterministic in their seed, that the low-branching family indexes with
p = 3 and m = depth, that every workload completes with no failed
operation in both modes and reports exactly the metrics BENCHMARK.json
lists, that the span counts match the call structure (two generators per
heat call, one verify_eigenpair per cell and basis), and that the
benchmark exits non-zero in a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from workloads import SIZES, _library_index  # noqa: E402

WORK = ROOT / ".bench_work"


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")


def generators() -> None:
    for make in (
        lambda s: gen.random_family(s, 60, 5, 0.05),
        lambda s: gen.low_branching_family(s, 40, 5),
        lambda s: gen.random_dag(s, 50, 0.2),
    ):
        check(make(3) == make(3), "a generator is not deterministic in its seed")
        check(make(3) != make(4), "a generator ignores its seed")
    for seed in (1, 2, 3):
        for n, depth in ((12, 3), (30, 5), (60, 7)):
            _, assign = _library_index(gen.low_branching_family(seed, n, depth))
            check(assign.p == 3, f"low-branching index has p = {assign.p}")
            check(assign.m == depth, f"low-branching index has m = {assign.m}, not {depth}")
            check(len(assign.labels) == n, "low-branching index lost vertices")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def workloads(spec: dict) -> None:
    nonzero: set = set()
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, trace)
            check(proc.returncode == 0, f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} --trace {trace}: {proc.stdout}")
            names = {m["name"] for m in spec[kind]}
            check(set(result["metrics"]) == names, f"{name} reports other {kind} metrics")
            nonzero |= {k for k, v in result["metrics"].items() if v["value"] != 0}
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name}: an end-to-end metric is 0")
    unused = {m["name"] for m in spec["per_layer"]} - nonzero
    check(not unused, f"per-layer metrics 0 on every workload: {sorted(unused)}")


def span_structure() -> None:
    spans = [json.loads(line) for line in
             (WORK / "spectral-heat-seed5-trace1.spans.jsonl").read_text().splitlines()[1:]]
    by_id = {s["id"]: s for s in spans}

    def ancestor(span, name):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return span["id"]
        return None

    heat = Counter(ancestor(s, "cli.heat") for s in spans if s["name"] == "operators.generator")
    heat_calls = [s["id"] for s in spans if s["name"] == "cli.heat"]
    check(heat_calls and all(heat[i] == 2 for i in heat_calls), "generator calls per heat call != 2")
    cells = SIZES["small"]["spectral-heat"]["N"]
    verify = Counter(s["parent"] for s in spans if s["name"] == "spectra.verify_eigenpair")
    bases = [s["id"] for s in spans if s["name"] == "spectra.full_basis"]
    check(bases and all(verify[i] == cells for i in bases), "verify_eigenpair calls per basis != N")


def bare_directory(spec: dict) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py succeeded without the program")
    check('"metrics"' not in proc.stdout, "run.py printed a result without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    generators()
    workloads(spec)
    span_structure()
    bare_directory(spec)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
