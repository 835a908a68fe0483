"""The four benchmark workloads: the argv of every call, and its output checks.

Each workload drives ``entpost.cli.main`` with one command line per call.
Call ``i`` of a run gets its own seed, derived from the run's seed, so a
run's inputs depend only on (workload, seed). Each montecarlo report is
recomputed from its own CSV rows, and the statistical laws are checked on
the results pooled over a whole run.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
from pathlib import Path

from entpost.montecarlo import ExperimentSpec, aggregate_rows, read_rows_csv, write_report_json
from entpost.netsim import parse_strategy


def call_seed(workload: str, seed: int, index: int) -> int:
    """Distinct 62-bit seed for call ``index`` of a run (index -1 is the warm-up)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


class Workload:
    """One workload. ``ops_per_call`` trials or transcripts per call.

    ``required_spans`` are the wrappers a traced run must see fire: the
    entry points of the command and the layers the workload exists to
    measure. Calls that later changes are expected to remove (the per-trial
    ``Pairing.inverse``, the discarded event log, the per-trial seeding)
    are deliberately not required.
    """

    name = ""
    ops_per_call = 1
    trace_calls_per_second = 1.0  # traced run length: calls per --seconds, per pass
    required_spans: tuple[str, ...] = ("cli.main",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        """Write this run's input files into ``workdir`` (before timing starts)."""

    def argv(self, index: int) -> list[str]:
        raise NotImplementedError

    def check(self, index: int, rc: int, stdout: str) -> tuple[str | None, bytes]:
        """(error or None, the call's output bytes for the run digest)."""
        raise NotImplementedError

    def pooled_error(self) -> str | None:
        """Error in the laws checked over all calls of the run, or None."""
        return None


class MonteCarlo(Workload):
    trials = 1
    common = ()  # fixed flags, as (flag, value) pairs

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ops_per_call = self.trials

    def flags(self, index: int) -> dict[str, str]:
        """Flags of call ``index`` beyond the fixed ones."""
        return {}

    def argv(self, index: int) -> list[str]:
        flags = dict(self.common)
        flags.update(self.flags(index))
        flags.update({
            "--trials": str(self.trials),
            "--seed": str(call_seed(self.name, self.seed, index)),
            "--workers": "1",
            "--out": str(self.out(index)),
        })
        return ["montecarlo"] + [part for item in flags.items() for part in item]

    def out(self, index: int) -> Path:
        return self.workdir / f"call{index}"

    def spec(self, index: int) -> ExperimentSpec:
        flags = dict(self.common)
        flags.update(self.flags(index))
        bits = flags.get("--bits")
        return ExperimentSpec(
            mode=flags["--mode"],
            n=int(flags["--n"]),
            lam=int(flags["--lambda"]),
            noise=float(flags.get("--noise", 0.0)),
            delta=float(flags.get("--delta", 0.0)),
            seed=call_seed(self.name, self.seed, index),
            trials=self.trials,
            bits=(int(bits[0]), int(bits[1])) if bits else None,
            strategy_bob=parse_strategy(flags.get("--strategy-bob", "honest")),
            strategy_sonai=parse_strategy(flags.get("--strategy-sonai", "honest")),
            codebook=flags.get("--codebook"),
        )

    def check(self, index: int, rc: int, stdout: str) -> tuple[str | None, bytes]:
        csv_path, report_path = (self.out(index).with_suffix(ext) for ext in (".csv", ".json"))
        csv_text = csv_path.read_text(encoding="utf-8")
        report_text = report_path.read_text(encoding="utf-8")
        csv_path.unlink()
        report_path.unlink()
        output = (csv_text + report_text).encode()
        if rc != 0:
            return f"exit code {rc}", output
        rows = read_rows_csv(io.StringIO(csv_text))
        recomputed = io.StringIO()
        write_report_json(aggregate_rows(self.spec(index), rows), recomputed)
        if recomputed.getvalue() != report_text:
            return "report differs from aggregate_rows over its own CSV", output
        report = json.loads(report_text)
        if report["trials"] != self.trials:
            return f"report counts {report['trials']} trials, expected {self.trials}", output
        return self.check_report(index, report), output

    def check_report(self, index: int, report: dict) -> str | None:
        return None


def _no_wrong_decodes(report: dict) -> str | None:
    # noiseless decodes are never wrong: every decoded trial must be correct
    if report["correct_rate"] != report["decode_success_rate"]:
        return (
            f"wrong decodes: correct {report['correct_rate']} "
            f"< decoded {report['decode_success_rate']}"
        )
    return None


class SoundnessN8(MonteCarlo):
    """A3: wrong-entry survival on the 8-pair reference book."""

    name = "soundness-n8"
    trials = 250
    trace_calls_per_second = 4.5
    common = (
        ("--mode", "soundness"), ("--n", "8"), ("--lambda", "4"),
        ("--codebook", "reference"), ("--bits", "00"),
    )
    required_spans = (
        "cli.main", "cli.cmd_montecarlo", "montecarlo.run_experiment",
        "montecarlo.aggregate_rows", "montecarlo.write_rows_csv", "montecarlo.write_report_json",
    )
    # the 11 entry sits at effective distance 4 from the true 00 entry
    survival_law = 2.0 ** -4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.survivals: dict[int, int] = {}  # by call index, so a repeated call counts once

    def check_report(self, index: int, report: dict) -> str | None:
        if index >= 0:  # the warm-up call stays out of the pool
            self.survivals[index] = round(report["survival_rates"]["11"] * self.trials)
        return _no_wrong_decodes(report)

    def pooled_error(self) -> str | None:
        n = len(self.survivals) * self.trials
        p = self.survival_law
        rate = sum(self.survivals.values()) / n
        tolerance = 5.0 * math.sqrt(p * (1.0 - p) / n)  # five binomial sigmas
        if abs(rate - p) > tolerance:
            return f"pooled survival of 11 is {rate:.5f}, law {p} +/- {tolerance:.5f} over {n} trials"
        return None


class HonestNoisyN256(MonteCarlo):
    """A5: decoding through 5% flips with a quarter violation tolerance."""

    name = "honest-noisy-n256"
    trials = 64
    trace_calls_per_second = 5.0
    common = (
        ("--mode", "honest"), ("--n", "256"), ("--lambda", "16"),
        ("--noise", "0.05"), ("--delta", "0.25"),
    )
    required_spans = SoundnessN8.required_spans

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.correct: dict[int, int] = {}  # by call index, so a repeated call counts once

    def check_report(self, index: int, report: dict) -> str | None:
        if index >= 0:
            self.correct[index] = round(report["correct_rate"] * self.trials)
        return None

    def pooled_error(self) -> str | None:
        n = len(self.correct) * self.trials
        rate = sum(self.correct.values()) / n
        if rate < 0.99:
            return f"pooled correct rate {rate:.4f} < 0.99 over {n} trials"
        return None


def _session_pairs(n: int) -> list[tuple[str, str, str]]:
    """(kind, bob strategy, sonai strategy) for one cycle of calls: every
    withhold:K for K in 2..n-2 with the cheater alternating, each followed by
    one of honest/honest, a liar and a batch dumper in turn."""
    others = [
        ("honest", "honest", "honest"),
        ("lie", "lie:0.1", "honest"),
        ("batchdump", "honest", "batchdump"),
    ]
    pairs = []
    for i, k in enumerate(range(2, n - 1)):
        withhold = f"withhold:{k}"
        pairs.append(("withhold",) + ((withhold, "honest") if i % 2 else ("honest", withhold)))
        pairs.append(others[i % len(others)])
    return pairs


class SessionMixedN64(MonteCarlo):
    """A6: the tick simulator under honest, withholding, lying and dumping receivers."""

    name = "session-mixed-n64"
    trials = 16
    trace_calls_per_second = 2.0
    common = (("--mode", "session"), ("--n", "64"), ("--lambda", "16"))
    required_spans = SoundnessN8.required_spans + (
        "netsim.build_world", "netsim.run_world", "netsim.World.deliver_phase",
        "netsim.World.act_phase", "protocol.Receiver.observe_reveal", "protocol.Receiver.decode",
    )
    pairs = _session_pairs(64)

    def flags(self, index: int) -> dict[str, str]:
        _, bob, sonai = self.pairs[index % len(self.pairs)]
        return {"--strategy-bob": bob, "--strategy-sonai": sonai}

    def check_report(self, index: int, report: dict) -> str | None:
        kind = self.pairs[index % len(self.pairs)][0]
        if kind == "honest":
            if report["status_counts"] != {"decoded": self.trials} or report["correct_rate"] != 1.0:
                return f"honest sessions did not all decode correctly: {report['status_counts']}"
            if report["max_fairness_gap"] != 1:
                return f"honest fairness gap {report['max_fairness_gap']} != 1"
        elif kind == "withhold":
            if report["abort_counts"] != {"timeout": self.trials}:
                return f"withheld sessions did not all time out: {report['abort_counts']}"
            if report["max_fairness_gap"] > 1:
                return f"withheld fairness gap {report['max_fairness_gap']} > 1"
        return _no_wrong_decodes(report)


class ReplayN1024(Workload):
    """Public-record audit: replay a pool of n=1024 transcripts."""

    name = "replay-n1024"
    trace_calls_per_second = 11.0
    required_spans = (
        "cli.main", "cli.cmd_replay", "codebook.load_codebook",
        "protocol.Transcript.from_jsonl", "protocol.decode_transcript",
    )
    n = 1024
    lam = 16
    # terminal line replay must print for each kind of recorded session
    terminal_lines = {
        "complete": "terminal: consistent",
        "withheld": "terminal: abort (timeout), echoed",
        "truncated": "terminal: absent",
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.codebook = workdir / "codebook.json"
        manifest = workdir / "pool.json"
        self.pool = json.loads(manifest.read_text()) if manifest.exists() else []

    def generate(self) -> None:
        """Codebook and transcripts, made with the program's own CLI: six
        complete honest sessions, three withhold-aborted ones and three
        honest prefixes cut before the terminal line."""
        import contextlib

        from entpost import cli

        rnd = random.Random(self.seed)

        def run(*argv: str) -> int:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))

        size = ("--n", str(self.n), "--lambda", str(self.lam))
        if run("codebook", "gen", *size, "--seed", str(self.seed), "--out", str(self.codebook)) != 0:
            raise RuntimeError("codebook generation failed")
        pool = []
        for i in range(12):
            bits = "".join(str(b) for b in rnd.choice([(0, 0), (1, 1), (0, 1), (1, 0)]))
            kind = ("complete", "withheld", "truncated", "complete")[i % 4]
            path = self.workdir / f"t{i}.jsonl"
            argv = ["run", *size, "--codebook", str(self.codebook), "--bits", bits,
                    "--seed", str(call_seed(self.name, self.seed, i)), "--out", str(path)]
            if kind == "withheld":
                cheater = rnd.choice(["--strategy-bob", "--strategy-sonai"])
                argv += [cheater, f"withhold:{rnd.randint(2, self.n - 2)}"]
            rc = run(*argv)
            if rc != (1 if kind == "withheld" else 0):
                raise RuntimeError(f"transcript {i} ({kind}) exited {rc}")
            if kind == "truncated":
                lines = path.read_text().splitlines(keepends=True)
                path.write_text("".join(lines[: rnd.randint(1, len(lines) - 2)]))
            pool.append({"file": path.name, "kind": kind, "bits": bits})
        (self.workdir / "pool.json").write_text(json.dumps(pool))

    def argv(self, index: int) -> list[str]:
        entry = self.pool[index % len(self.pool)]
        return ["replay", "--codebook", str(self.codebook),
                "--transcript", str(self.workdir / entry["file"])]

    def check(self, index: int, rc: int, stdout: str) -> tuple[str | None, bytes]:
        entry = self.pool[index % len(self.pool)]
        lines = stdout.splitlines()
        if rc != 0:
            return f"{entry['file']}: exit code {rc}", stdout.encode()
        if not lines or lines[-1] != self.terminal_lines[entry["kind"]]:
            return f"{entry['file']} ({entry['kind']}): last line {lines[-1:]}", stdout.encode()
        if entry["kind"] == "complete":
            bits = entry["bits"]
            expected = ["replay_status: decoded", f"bob_bit: {bits[0]}", f"sonai_bit: {bits[1]}"]
            if lines[:3] != expected:
                return f"{entry['file']}: decoded {lines[:3]}, sent {bits}", stdout.encode()
        return None, stdout.encode()


WORKLOADS = {w.name: w for w in (SoundnessN8, HonestNoisyN256, SessionMixedN64, ReplayN1024)}
