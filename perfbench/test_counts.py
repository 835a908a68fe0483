"""Traced counts repeat exactly, and the printed metrics match BENCHMARK.json.

  python3 -m pytest perfbench

Later changes may cite ``*.calls_per_op``, ``*.calls_per_call``,
``netsim.ticks_per_op`` and ``netsim.log_entries_per_op`` as counts, which
holds only if two traced runs at one seed agree on them exactly.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (".calls_per_op", ".calls_per_call", "netsim.ticks_per_op", "netsim.log_entries_per_op")


def bench(workload: str, trace: int) -> tuple[dict, str]:
    """(result line, outputs digest) of a one-second run at seed 3."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("outputs_sha256:"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    (first, first_digest), (second, second_digest) = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    counts = [name for name in first["metrics"] if name.endswith(COUNTS)]
    assert len(counts) == 10
    assert {name: first["metrics"][name] for name in counts} == {
        name: second["metrics"][name] for name in counts
    }
    assert first_digest == second_digest


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    result, _ = bench("replay-n1024", trace)
    assert result["correct"] and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
