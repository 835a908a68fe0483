"""Benchmark entry point: one run of one workload.

  python3 perfbench/run.py --workload soundness-n8 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and measures the program under
``src/``. Each step is its own single-threaded process (worker.py): input
generation, then, with ``--trace 0``, SETUP_PROBES set-up probes and the
timed run, or, with ``--trace 1``, the untraced and traced passes. Prints
every metric by name with its unit, and as the last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 10  # set-up samples besides the timed run's own; setup_s is their median
# every child is killed once the run has lasted this long: a margin for the
# input generation and the set-up probes, plus a multiple of --seconds for
# the timed run or the two traced passes
DEADLINE_MARGIN_S = 60.0
DEADLINE_PER_SECOND = 3.0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def deadline(args: argparse.Namespace) -> float:
    return DEADLINE_MARGIN_S + DEADLINE_PER_SECOND * args.seconds


def run_child(phase: str, args: argparse.Namespace, workdir: Path, started: float, *extra: str) -> dict:
    result = workdir / f"{phase}.result.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, str(WORKER), phase, "--workload", args.workload, "--seed", str(args.seed),
         "--workdir", str(workdir), "--result", str(result), *extra],
        cwd=ROOT, env=env, check=True, timeout=max(1.0, deadline(args) - (time.monotonic() - started)),
    )
    return json.loads(result.read_text())


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description="Run one entpost benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "entpost" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'entpost'} is missing", file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run_child("gen", args, workdir, started)
        seconds = ("--seconds", str(args.seconds))
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"{args.workload}.spans.npz"
            run = run_child("trace", args, workdir, started, *seconds, "--spans", str(spans))
            metrics = run["metrics"]
        else:
            probes = [run_child("setup", args, workdir, started)["setup_s"] for _ in range(SETUP_PROBES)]
            run = run_child("measure", args, workdir, started, *seconds)
            run["setup_s"] = statistics.median(probes + [run["setup_s"]])
            metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload: {args.workload} seed: {args.seed} trace: {args.trace}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        # printed, not gated: the median flips between the fast and the
        # contended speed of a shared machine (see README.md)
        print(f"call_ms_p50: {run['call_ms_p50']:.6g} ms")
        print(f"calls: {run['calls']}")
    error_rate = run["failed"] / run["attempted"]
    print(f"error_rate: {error_rate:.6g} ({run['failed']} of {run['attempted']} ops failed)")
    print(f"outputs_sha256: {run['digest']}")
    print(json.dumps({
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
