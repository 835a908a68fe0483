"""One benchmark process: input generation, a set-up probe, a timed run or a
traced run of one workload. run.py starts it; it writes its result as JSON
to the ``--result`` file.

  gen      write the workload's input files into --workdir
  setup    time ``import entpost.cli`` plus one warm-up call, then exit
  measure  set up, then call for --seconds (and at least MIN_CALLS calls)
  trace    set up, then run each call untraced and again traced; their
           number is fixed by --seconds, so counts repeat exactly per seed
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_CALLS = 100  # so that at least ten calls lie beyond the 90th percentile
DIGEST_CALLS = 20  # calls whose outputs the digest covers, from call 0


class Session:
    """Runs the calls of one workload and keeps the run's tallies."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def call(self, index: int, tracer=None) -> float:
        """Run call ``index``, check it and return its wall time in seconds."""
        argv = self.workload.argv(index)
        stdout = io.StringIO()
        error = None
        if tracer is not None:
            tracer.op_id = index
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception as exc:  # a raising call fails all of its ops
            rc, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                error, output = self.workload.check(index, rc, stdout.getvalue())
            except Exception as exc:
                error = f"check raised {exc!r}"
            else:
                if tracer is None and 0 <= index < DIGEST_CALLS:
                    self.digest.update(output)
        ops = self.workload.ops_per_call
        self.attempted += ops
        if index >= 0:
            self.times.append(elapsed)
        if error is not None:
            self.failed += ops
            self.errors.append(f"call {index} {' '.join(argv)}: {error}")
        return elapsed

    def check_pooled(self) -> None:
        error = self.workload.pooled_error()
        if error:
            self.errors.append(error)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "digest": self.digest.hexdigest(),
        }


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and make one warm-up call; returns the session and
    the set-up time in seconds (the import plus the warm-up call)."""
    start = time.perf_counter()
    from entpost import cli

    imported = time.perf_counter() - start
    from workloads import WORKLOADS  # benchmark code, loaded after the timed import

    session = Session(cli, WORKLOADS[workload](seed, workdir))
    return session, imported + session.call(-1)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def measure(session: Session, seconds: float) -> dict:
    start = time.perf_counter()
    index = 0
    while index < MIN_CALLS or time.perf_counter() - start < seconds:
        session.call(index)
        index += 1
    session.check_pooled()
    times = sorted(session.times)
    return {
        "calls": len(times),
        "ops_per_s": len(times) * session.workload.ops_per_call / sum(times),
        "call_ms_p50": percentile(times, 50) * 1e3,
        "call_ms_p90": percentile(times, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(session: Session, seconds: float, spans_path: Path) -> dict:
    from tracer import TICK_PHASES, Tracer, layer_metrics

    calls = max(4, round(session.workload.trace_calls_per_second * seconds))
    ops = calls * session.workload.ops_per_call
    tracer = Tracer()
    tracer.install()
    missed = tracer.unwrapped_bindings()
    tracer.uninstall()
    # Each call runs once untraced and once traced, in alternating order, so
    # that a drift in the machine's speed falls on both passes alike.
    untraced = traced = 0.0
    for i in range(calls):
        for t in (None, tracer) if i % 2 == 0 else (tracer, None):
            elapsed = session.call(i, t)
            if t is None:
                untraced += elapsed
            else:
                traced += elapsed
    session.check_pooled()
    stats, roots = tracer.summary()
    tracer.write(spans_path)

    if missed:
        session.errors.append(f"bindings left unwrapped: {missed}")
    if roots != {"cli.main"}:
        session.errors.append(f"spans outside cli.main: {sorted(roots - {'cli.main'})}")
    silent = [span for span in session.workload.required_spans if stats.get(span, (0,))[0] == 0]
    if silent:
        session.errors.append(f"required spans never fired: {silent}")

    metrics = layer_metrics(stats, tracer.layer_self_within("netsim", TICK_PHASES), calls, ops)
    metrics.update({
        "tracing.untraced_ops_per_s": (ops / untraced, "ops/s"),
        "tracing.traced_ops_per_s": (ops / traced, "ops/s"),
        "tracing.overhead_share": (1.0 - untraced / traced, "share"),
        "tracing.spans_per_op": (len(tracer.end) / ops, "spans/op"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["gen", "setup", "measure", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    if args.phase == "gen":
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.workdir).generate()
        args.result.write_text("{}")
        return

    session, setup_s = set_up(args.workload, args.seed, args.workdir)
    result = {"setup_s": setup_s}
    if args.phase == "measure":
        result.update(measure(session, args.seconds))
    elif args.phase == "trace":
        result["metrics"] = trace(session, args.seconds, args.spans)
    result.update(session.result())
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
