"""Batch measurement of decode reliability, soundness, and fairness.

Every trial draws its randomness from a substream addressed by (base seed,
trial index), so results never depend on how trials are sliced across
workers. Honest and soundness trials are prepared one by one but folded and
checked in blocks, one fold per block for both receivers. Reports are
produced by one aggregation function over the per-trial rows; there is no
second bookkeeping path to drift out of sync.
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Sequence

import numpy as np

from . import rng as rng_mod
from .codebook import BIT_PAIR_ORDER, Codebook, resolve_codebook
from .netsim import Honest, Strategy, fairness_gap
from .protocol import (Party, ProtocolConfig, TerminalRecord, alice_prepare, decode_block,
                       run_session, terminal_record)

__all__ = [
    "ExperimentSpec",
    "StatsReport",
    "run_trial",
    "run_experiment",
    "aggregate_rows",
    "write_rows_csv",
    "read_rows_csv",
    "write_report_json",
]

MODES = ("honest", "session", "soundness")
_CONFIG_FIELDS = tuple(f.name for f in fields(ProtocolConfig))
_FOLD_BLOCK = 256  # honest and soundness trials folded at once: bounded memory at any count


@dataclass(frozen=True)
class ExperimentSpec(ProtocolConfig):
    """Everything needed to reproduce a batch bit for bit: the session
    parameters it inherits, pacing included (``seed`` is the base seed),
    plus the batch ones.

    mode picks how trials run: "honest" folds the complete tables of
    truthful sessions in blocks of trials, one fold per block serving both
    receivers, without the tick machinery (the simulator's honest run ends
    in the same state, far more slowly); "session" runs the full simulator
    with the given strategies and pacing; and "soundness" folds honest
    sessions the same way and records which wrong entries survived the
    whole exchange, in both receivers' view.
    """

    mode: str = "honest"
    trials: int = 100
    bits: tuple[int, int] | None = None
    strategy_bob: Strategy = field(default_factory=Honest)
    strategy_sonai: Strategy = field(default_factory=Honest)
    codebook: str | None = None  # None: generate from seed; "reference"; else a JSON path

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        super().__post_init__()

    def config(self, seed: int) -> ProtocolConfig:
        """The plain session parameters of one trial, at its own seed."""
        params = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        params["seed"] = seed
        return ProtocolConfig(**params)

    def trial_bits(self, trial: int) -> tuple[int, int]:
        if self.bits is not None:
            return self.bits
        return BIT_PAIR_ORDER[trial % len(BIT_PAIR_ORDER)]

    def shared_codebook(self) -> Codebook:
        """One public codebook per experiment (see ``resolve_codebook``)."""
        return resolve_codebook(self.codebook, self.n, self.lam, self.seed)


def _row(trial: int, seed: int, bits: tuple[int, int], terminal: TerminalRecord,
         ticks: int, gap: int) -> dict:
    reason = terminal.abort_reason.value if terminal.abort_reason else None
    return dict(trial=trial, seed=seed, truth_bob=bits[0], truth_sonai=bits[1],
                status=terminal.status.value, bob_bit=terminal.bob_bit,
                sonai_bit=terminal.sonai_bit, confidence=terminal.confidence,
                abort_reason=reason, ticks=ticks, fairness_gap=gap)


def run_trial(spec: ExperimentSpec, cb: Codebook, trial: int) -> dict:
    """One self-contained trial; the row carries everything reports need."""
    if spec.mode != "session":
        return _fold_trials(spec, cb, trial, trial + 1)[0]
    seed = rng_mod.derive_seed(spec.seed, rng_mod.KEY_TRIAL, trial)
    bits = spec.trial_bits(trial)
    strategies = {Party.BOB: spec.strategy_bob, Party.SONAI: spec.strategy_sonai}
    outcome = run_session(spec.config(seed=seed), bits, strategies, cb=cb)
    return _row(trial, seed, bits, outcome.terminal, outcome.ticks, fairness_gap(outcome.transcript))


def _fold_trials(spec: ExperimentSpec, cb: Codebook, start: int, stop: int) -> list[dict]:
    """Rows of the honest or soundness trials start..stop-1. Each table is
    prepared from its trial's own seed, as ``build_world`` prepares it. Both
    receivers end holding that table, so the (trials, 2, n) stack of them is
    folded at once and decoded once per trial for both. A complete honest
    run takes 2n + 1 ticks with a lead of one."""
    trials = range(start, stop)
    seeds = [rng_mod.derive_seed(spec.seed, rng_mod.KEY_TRIAL, t) for t in trials]
    bits = [spec.trial_bits(t) for t in trials]
    tables = np.stack([alice_prepare(seed, spec.noise, b, cb) for seed, b in zip(seeds, bits)])
    results, alive_entries = decode_block(cb, spec, tables)
    rows = []
    for i, trial in enumerate(trials):
        terminal = terminal_record(results[i], results[i])
        row = _row(trial, seeds[i], bits[i], terminal, 2 * spec.n + 1, 1)
        if spec.mode == "soundness":
            for entry, alive in zip(cb.entries, alive_entries[i]):
                if entry.bits != bits[i]:
                    row[f"survived_{entry.bits[0]}{entry.bits[1]}"] = alive
        rows.append(row)
    return rows


def _run_chunk(spec: ExperimentSpec, cb: Codebook, start: int, stop: int) -> list[dict]:
    if spec.mode == "session":
        return [run_trial(spec, cb, t) for t in range(start, stop)]
    blocks = range(start, stop, _FOLD_BLOCK)
    return [row for a in blocks for row in _fold_trials(spec, cb, a, min(a + _FOLD_BLOCK, stop))]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> tuple[list[dict], "StatsReport"]:
    """Run all trials and aggregate. The report is identical for any worker
    count because trial seeds depend only on the trial index. The trials are
    split into min(workers, trials) chunks, run by at most one process per
    CPU."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cb = spec.shared_codebook()
    chunks = min(workers, spec.trials)
    if chunks == 1:
        rows = _run_chunk(spec, cb, 0, spec.trials)
    else:
        # chunks <= trials, so every chunk holds at least one trial
        bounds = [spec.trials * i // chunks for i in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_run_chunk, spec, cb, a, b) for a, b in zip(bounds, bounds[1:])]
            rows = [row for fut in futures for row in fut.result()]
    return rows, aggregate_rows(spec, rows, cb=cb)


@dataclass(frozen=True)
class StatsReport:
    """Aggregate view of one experiment; serializes straight to JSON."""

    mode: str
    trials: int
    seed: int
    n: int
    lam: int
    flip_probability: float
    delta: float
    confidence_target: float
    status_counts: dict
    abort_counts: dict
    decode_success_rate: float
    correct_rate: float
    mean_confidence: float | None
    mean_ticks: float
    fairness_gap_hist: dict
    max_fairness_gap: int
    survival_rates: dict
    survival_by_distance: dict
    strategy_bob: str
    strategy_sonai: str

    def to_json_obj(self) -> dict:
        return asdict(self)


def _survival_by_distance(cb: Codebook, rows: Sequence[dict]) -> dict:
    """Tally wrong-candidate survival events, grouped by effective distance.

    The distance between the true entry and each surviving wrong candidate is
    looked up in the experiment's codebook, so a report regenerated from the
    raw CSV lands on the same numbers.
    """
    lookup: dict[tuple, int] = {}
    for (a, b), d in cb.pairwise_distances().items():
        lookup[(a, b)] = d
        lookup[(b, a)] = d
    counts: dict[int, int] = {}
    for row in rows:
        truth = (row["truth_bob"], row["truth_sonai"])
        for key, value in row.items():
            if not key.startswith("survived_") or not value:
                continue
            suffix = key.removeprefix("survived_")
            cand = (int(suffix[0]), int(suffix[1]))
            d = lookup[(truth, cand)]
            counts[d] = counts.get(d, 0) + 1
    return {str(d): counts[d] for d in sorted(counts)}


def aggregate_rows(
    spec: ExperimentSpec, rows: Sequence[dict], *, cb: Codebook | None = None
) -> StatsReport:
    """The only path from rows to a report. ``cb`` is the experiment's
    codebook if the caller has already resolved it; it is needed only when
    the rows carry survival results, and resolved from ``spec`` if absent."""
    status_counts: dict[str, int] = {}
    abort_counts: dict[str, int] = {}
    gap_hist: dict[str, int] = {}
    decoded = 0
    correct = 0
    conf_sum = 0.0
    conf_count = 0
    tick_sum = 0
    survival_tallies: dict[str, list[int]] = {}  # key -> [survived, rows where present]
    for row in rows:
        status = row["status"]
        status_counts[status] = status_counts.get(status, 0) + 1
        if row.get("abort_reason"):
            reason = row["abort_reason"]
            abort_counts[reason] = abort_counts.get(reason, 0) + 1
        if status == "decoded":
            decoded += 1
            conf_sum += row["confidence"]
            conf_count += 1
            if (row["bob_bit"], row["sonai_bit"]) == (row["truth_bob"], row["truth_sonai"]):
                correct += 1
        gap = str(row["fairness_gap"])
        gap_hist[gap] = gap_hist.get(gap, 0) + 1
        tick_sum += row["ticks"]
        for key, value in row.items():
            # a trial has no survived_* entry for its own true bits (None in CSV)
            if key.startswith("survived_") and value is not None:
                tally = survival_tallies.setdefault(key, [0, 0])
                tally[0] += 1 if value else 0
                tally[1] += 1
    total = len(rows)
    survival_rates = {
        key.removeprefix("survived_"): survived / present
        for key, (survived, present) in sorted(survival_tallies.items())
    }
    survival_by_distance = (
        _survival_by_distance(cb or spec.shared_codebook(), rows) if survival_tallies else {}
    )
    return StatsReport(
        mode=spec.mode,
        trials=total,
        seed=spec.seed,
        n=spec.n,
        lam=spec.lam,
        flip_probability=spec.noise,
        delta=spec.delta,
        confidence_target=spec.confidence_target,
        status_counts=dict(sorted(status_counts.items())),
        abort_counts=dict(sorted(abort_counts.items())),
        decode_success_rate=decoded / total,
        correct_rate=correct / total,
        mean_confidence=(conf_sum / conf_count) if conf_count else None,
        mean_ticks=tick_sum / total,
        fairness_gap_hist=dict(sorted(gap_hist.items(), key=lambda kv: int(kv[0]))),
        max_fairness_gap=max((int(k) for k in gap_hist), default=0),
        survival_rates=survival_rates,
        survival_by_distance=survival_by_distance,
        strategy_bob=spec.strategy_bob.describe(),
        strategy_sonai=spec.strategy_sonai.describe(),
    )


def write_rows_csv(rows: Sequence[dict], fp: IO[str]) -> None:
    if not rows:
        return
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))  # first-seen order
    writer = csv.DictWriter(fp, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def _coerce_cell(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_rows_csv(fp: IO[str]) -> list[dict]:
    return [
        {key: _coerce_cell(value) for key, value in row.items()}
        for row in csv.DictReader(fp)
    ]


def write_report_json(report: StatsReport, fp: IO[str]) -> None:
    json.dump(report.to_json_obj(), fp, indent=2, sort_keys=True)
    fp.write("\n")
