"""ultraheat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload family-index --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Metric names and units come from BENCHMARK.json.  With ``--trace 0`` the
last line reports the end-to-end metrics: ``setup_s`` is the median over
five fresh interpreters (four set-up-only workers and the measuring
process) of the time from starting the interpreter to the first timed
call.  ``round_s`` and the operations' times are scaled to full host
speed (see speed.py); ``setup_s`` is not.  With ``--trace 1`` it reports
the per-layer metrics of a traced run.  The lines before it print every
operation's time by name.

Children run with one BLAS thread (OpenBLAS, OpenMP and MKL pinned) and a
fixed hash seed.  Run records and span files are written to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None when
    ``setup_only``).  Raises RuntimeError when the worker fails."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if len(ready) != 1:
        raise RuntimeError("worker did not report the end of set-up")
    setup = float(ready[0].split()[1]) - started
    return setup, (None if setup_only else json.loads(lines[-1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="input sizes; 'small' is for the smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ultraheat" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of an ultraheat checkout (needs src/ultraheat and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(args, deadline, setup_only=True)[0])
        setup, result = start_worker(args, deadline, setup_only=False)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    for problem in result["failures"]:
        print(f"FAILED {problem}")
    print(f"# workload {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"sizes {json.dumps(result['sizes'])}, artifact bytes per round {result['artifact_bytes']}")
    print(f"# environment {json.dumps(result['env'])}")
    for name, value in result["ops"].items():
        if name == "toposort_p90_ms":
            print(f"{name} = {value:.6g} ms over {result['toposort_calls']} calls")
        else:
            print(f"{name} = {value:.6g} s per round at full host speed, median of "
                  f"{result['rounds']} rounds (fastest raw {result['ops_raw_best'][name]:.6g} s)")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(f"peak_rss_mb = {result['peak_rss_mb']:.6g} MB")

    if args.trace:
        layers = result["per_layer"]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {name: layers.get(name, 0.0) for name, _ in names}
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {
            "setup_s": statistics.median(setups),
            "round_s": result["round_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
