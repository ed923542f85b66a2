"""One benchmark process: set up one workload, then measure rounds of it.

Run by ``run.py``, never directly.  It prints ``READY <monotonic time>``
when set-up is done (so the parent can time set-up from the moment it
started this interpreter), and as its last line one JSON object with the
measurements.  With ``--setup-only`` it exits after ``READY``.

With ``--trace 1`` the first half of the time measures untraced rounds
and the second half traced rounds; the difference of their round times
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ultraheat  # noqa: E402

if not Path(ultraheat.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"ultraheat was imported from {ultraheat.__file__}, not from ./src")

from spans import Tracer  # noqa: E402
from speed import PROBE_NOMINAL_S, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
TRACE_OUT = ROOT / ".bench_work"


def measure(calls, seconds: float, digests: dict, failures: list, tracer=None) -> dict:
    """Repeat rounds of the calls until the next round would overrun.

    The host's speed changes during a run (see speed.py), so each round
    runs pinned to one CPU (successive rounds to successive CPUs of the
    process's affinity set) between two speed probes on that CPU, and its
    times are scaled to full speed by the mean of the two probes.  An
    operation's time (``ops``) is the sum over its calls of each call's
    median scaled time over the rounds; ``round_s`` is the median scaled
    round.  The fastest raw times (``ops_raw_best``) are reported
    alongside.
    """
    cpus = sorted(os.sched_getaffinity(0))
    round_walls: list[float] = []
    scales: list[float] = []
    times: list[list[float]] = [[] for _ in calls]  # per call, one raw time per round
    attempted = failed = 0
    start = time.monotonic()
    while len(round_walls) < MIN_ROUNDS or (
        time.monotonic() - start + statistics.median(round_walls) <= seconds
    ):
        os.sched_setaffinity(0, {cpus[len(round_walls) % len(cpus)]})
        gc.collect()
        began = time.monotonic()
        speed_before = probe()
        for call, call_times in zip(calls, times):
            attempted += 1
            if tracer is not None:
                tracer.activate()
            t0 = time.perf_counter()
            try:
                out = call.run()
            except (Exception, SystemExit) as exc:
                out, problems = None, [f"{call.key}: {type(exc).__name__}: {exc}"]
            call_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.deactivate()
            if out is not None:
                try:
                    problems, digest = call.check(out)
                except (OSError, ValueError, KeyError) as exc:  # unreadable output
                    problems, digest = [f"{call.key}: {type(exc).__name__}: {exc}"], None
                if digest is not None and digests.setdefault(call.key, digest) != digest:
                    problems.append(f"{call.key}: artifact differs between identical calls")
            if problems:
                failed += 1
                failures.extend(problems)
        scales.append(2 * PROBE_NOMINAL_S / (speed_before + probe()))
        round_walls.append(time.monotonic() - began)
    os.sched_setaffinity(0, cpus)
    ops: dict = {}
    ops_raw_best: dict = {}
    for call, call_times in zip(calls, times):
        name = f"{call.op}_s"
        scaled = statistics.median(t * k for t, k in zip(call_times, scales))
        ops[name] = ops.get(name, 0.0) + scaled
        ops_raw_best[name] = ops_raw_best.get(name, 0.0) + min(call_times)
    round_times = [sum(ts) for ts in zip(*times)]
    return {
        "rounds": len(round_walls),
        "round_s": statistics.median(t * k for t, k in zip(round_times, scales)),
        "round_times": round_times,
        "speed_scales": scales,
        "round_mean_s": sum(round_times) / len(round_walls),
        "ops": ops,
        "ops_raw_best": ops_raw_best,
        "call_times": {op: [t * k for c, ts in zip(calls, times) if c.op == op
                            for t, k in zip(ts, scales)]
                       for op in {c.op for c in calls}},
        "attempted": attempted,
        "failed": failed,
    }


def per_layer(tracer: Tracer, rounds: int, workload) -> dict:
    out: dict = {}
    summary = tracer.summary()
    for name, rec in summary.items():
        out[f"{name}.calls"] = rec["calls"] / rounds
        out[f"{name}.self_s"] = rec["self_s"] / rounds
    for key, value in tracer.counts.items():
        out[key] = value / rounds
    out.update(tracer.maxima)
    merges = summary.get("toposort.merge_sorted_clusters")
    if merges:
        out["toposort.merge_cycle_ratio"] = merges["errors"].get("CycleDetected", 0) / merges["calls"]
    if workload.counts.get("sorts"):
        out["toposort.same_as_kahn_ratio"] = workload.counts["same_as_kahn"] / workload.counts["sorts"]
    for key, value in workload.cert.items():
        out[f"cert.{key}"] = value
    out["trace.spans"] = len(tracer.spans) / rounds
    out["trace.self_sum_s"] = sum(tracer.self_times()) / rounds
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "toposort_parallelism": [1, 2],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = TRACE_OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
        workload.setup()
        calls = workload.calls()
        print(f"READY {time.monotonic():.9f}", flush=True)
        if args.setup_only:
            return 0
        digests: dict = {}
        failures: list = []
        tracer = None
        seconds = args.seconds / 2 if args.trace else args.seconds
        result = measure(calls, seconds, digests, failures)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(calls, seconds, digests, failures, tracer)
            finally:
                tracer.uninstall()
            layers = per_layer(tracer, traced["rounds"], workload)
            # Raw means, not scaled medians: self times are raw means over
            # the traced rounds, and they must add up to trace.round_s.
            layers["trace.round_s"] = traced["round_mean_s"]
            layers["trace.untraced_round_s"] = result["round_mean_s"]
            layers["trace.overhead_s"] = traced["round_mean_s"] - result["round_mean_s"]
            result["per_layer"] = layers
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
        sorts = result["call_times"].get("toposort")
        if sorts:
            result["ops"]["toposort_p90_ms"] = statistics.quantiles(sorts, n=10)[-1] * 1e3
            result["toposort_calls"] = len(sorts)
        del result["call_times"]
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            sizes=workload.sizes,
            artifact_bytes=sum(workload.artifact_bytes.values()),
            cert=workload.cert,
            failures=failures[:10],
            env=environment(),
        )
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (TRACE_OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        if tracer is not None:
            tracer.write_jsonl(TRACE_OUT / f"{stem}.spans.jsonl", {
                "workload": args.workload, "seed": args.seed, "rounds": traced["rounds"],
            })
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
