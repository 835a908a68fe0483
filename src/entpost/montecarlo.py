"""Batch measurement of decode reliability, soundness, and fairness.

Every trial draws its randomness from a substream addressed by (base seed,
trial index), so results never depend on how trials are sliced across
workers. A session's timing never reads its data, since a strategy plans
from counters alone (``Strategy.plan``): the reveal order, the ticks, any
timeout and the fairness gap are the same in every trial of one strategy
pair and config. So trials are seeded, drawn, folded and checked in blocks
on one schedule: the complete exchange of two honest receivers in honest and
soundness mode, and in session mode the schedule of one simulated session
per chunk. A block's trial seeds come from one ``rng.derive_seeds`` call,
and its prepare draw and each receiver's noise and lie draws from one
``rng.substream_uint64s`` call each, so each trial still gets its own
streams. Reports are produced by one aggregation function over the
per-trial rows; there is no second bookkeeping path to drift out of sync.
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
from .netsim import Honest, Strategy, fairness_gap, lie_flips
from .protocol import (AbortReason, DecodeResult, Party, ProtocolConfig, SessionOutcome,
                       alice_prepare, decode_block, run_session, terminal_record)

__all__ = [
    "ExperimentSpec",
    "StatsReport",
    "run_experiment",
    "aggregate_rows",
    "write_rows_csv",
    "read_rows_csv",
    "write_report_json",
]

MODES = ("honest", "session", "soundness")
_CONFIG_FIELDS = tuple(f.name for f in fields(ProtocolConfig))
_FOLD_BLOCK = 256  # trials folded at once: bounded memory at any count


@dataclass(frozen=True)
class ExperimentSpec(ProtocolConfig):
    """Everything needed to reproduce a batch bit for bit: the session
    parameters it inherits, pacing included (``seed`` is the base seed),
    plus the batch ones.

    mode picks how trials run: "honest" folds the complete tables of
    truthful sessions in blocks of trials, one fold per block serving both
    receivers, without the tick machinery (the simulator's honest run ends
    in the same state, far more slowly); "session" plays the given
    strategies and pacing: each chunk of trials runs its first trial on the
    simulator and folds them all on that session's schedule, with each
    trial's own values and lie flips, to the rows the simulator would give
    them; and "soundness" folds honest sessions the same way as "honest"
    and records which wrong entries survived the whole exchange, in both
    receivers' view. Only session mode plays strategies, so the other modes
    take honest ones only.
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
        # type before range, as ProtocolConfig does: True would run one trial
        if isinstance(self.trials, bool) or not isinstance(self.trials, int):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.bits is not None and not (
            type(self.bits) is tuple and len(self.bits) == 2
            and all(type(bit) is int and bit in (0, 1) for bit in self.bits)
        ):
            raise ValueError(f"bits must be None or a pair of 0/1 integers, got {self.bits!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        for name in ("strategy_bob", "strategy_sonai"):
            strategy = getattr(self, name)
            if not isinstance(strategy, Strategy):
                raise ValueError(f"{name} must be a Strategy, got {strategy!r}")
            if self.mode != "session" and not isinstance(strategy, Honest):
                raise ValueError(f"{name} {strategy.describe()} plays only in session mode, "
                                 f"not in {self.mode} mode")
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


def _row(trial: int, seed: int, bits: tuple[int, int], terminal: DecodeResult,
         ticks: int, gap: int) -> dict:
    reason = terminal.abort_reason.value if terminal.abort_reason else None
    return dict(trial=trial, seed=seed, truth_bob=bits[0], truth_sonai=bits[1],
                status=terminal.status.value, bob_bit=terminal.bob_bit,
                sonai_bit=terminal.sonai_bit, confidence=terminal.confidence,
                abort_reason=reason, ticks=ticks, fairness_gap=gap)


@dataclass(frozen=True)
class _Schedule:
    """What a session's timing fixes, whatever its data: the ``lie`` chance
    of bob's, then sonai's strategy, the transport abort if any, the tick
    count and the fairness gap. ``Strategy.plan`` reads counters alone, so
    one schedule serves every trial of a strategy pair and config. A
    session that does not abort ends with each receiver holding all of the
    counterpart's published values."""

    lies: tuple[float, float]
    abort: AbortReason | None
    ticks: int
    gap: int

    @classmethod
    def complete(cls, config: ProtocolConfig) -> "_Schedule":
        """Two honest receivers, with a lead of one. At a one-ahead limit of
        1 they alternate, one reveal a tick, and the last arrives at tick
        2n + 1; above it both reveal every tick, so it arrives at n + 1."""
        ticks = 2 * config.n + 1 if config.one_ahead_limit == 1 else config.n + 1
        return cls((0.0, 0.0), None, ticks, 1)

    @classmethod
    def of(cls, outcome: SessionOutcome, strategies: dict[Party, Strategy]) -> "_Schedule":
        """The schedule ``outcome`` followed under ``strategies``. A decode
        abort (no consistent entry) depends on the data, so only a timeout
        is kept."""
        reason = outcome.terminal.abort_reason
        return cls(
            lies=(strategies[Party.BOB].lie, strategies[Party.SONAI].lie),
            abort=None if reason is AbortReason.NO_CONSISTENT_ENTRY else reason,
            ticks=outcome.ticks,
            gap=fairness_gap(outcome.transcript),
        )


def _fold_trials(spec: ExperimentSpec, cb: Codebook, trials: range, schedule: _Schedule) -> list[dict]:
    """Rows of ``trials`` run on ``schedule``. Each table is the one
    ``build_world`` prepares from its trial's own seed, drawn for the whole
    block at once. A receiver ends holding its own row and the
    counterpart's published one, a liar's flipped at its ``lie_flips`` as
    ``build_world`` flips it. All views are folded at once. When nobody
    lies both views are the table, so each trial decodes once for both;
    after a transport abort nothing is decoded."""
    block_seeds = rng_mod.derive_seeds(spec.seed, (rng_mod.KEY_TRIAL,), trials)
    seeds = block_seeds.tolist()
    bits = [spec.trial_bits(t) for t in trials]
    if schedule.abort is not None:  # the terminal is the abort, whatever the receivers hold
        terminal = DecodeResult.aborted(schedule.abort)
        return [_row(t, seed, b, terminal, schedule.ticks, schedule.gap)
                for t, seed, b in zip(trials, seeds, bits)]
    tables = alice_prepare(block_seeds, spec.noise, bits, cb)
    if not any(schedule.lies):
        results, alive_entries = decode_block(cb, spec, tables)
        pairs = list(zip(results, results))
    else:
        views = np.stack((tables, tables), axis=1)  # (trials, receiver, 2, n)
        for side, p in enumerate(schedule.lies):
            if p:  # only the counterpart sees the lies
                views[:, 1 - side, side][lie_flips(block_seeds, side, p, cb.n)] *= -1
        results, _ = decode_block(cb, spec, views.reshape(-1, 2, cb.n))
        pairs = list(zip(results[0::2], results[1::2]))
    rows = []
    for i, trial in enumerate(trials):
        row = _row(trial, seeds[i], bits[i], terminal_record(*pairs[i]), schedule.ticks, schedule.gap)
        if spec.mode == "soundness":  # always the complete schedule, one view per trial
            for j in cb.bit_pair_order:  # columns in one order, however the book lists them
                entry = cb.entries[j]
                if entry.bits != bits[i]:
                    row[f"survived_{entry.bits[0]}{entry.bits[1]}"] = alive_entries[i][j]
        rows.append(row)
    return rows


def _run_chunk(spec: ExperimentSpec, cb: Codebook, start: int, stop: int) -> list[dict]:
    """Rows of trials start..stop-1, folded in blocks of _FOLD_BLOCK. A
    session chunk runs its first trial on the simulator only for the
    schedule every trial of the chunk is folded on; an honest or soundness
    chunk folds every trial on the complete exchange."""
    if spec.mode == "session":
        seed = rng_mod.derive_seed(spec.seed, rng_mod.KEY_TRIAL, start)
        strategies = {Party.BOB: spec.strategy_bob, Party.SONAI: spec.strategy_sonai}
        outcome = run_session(spec.config(seed=seed), spec.trial_bits(start), strategies, cb=cb)
        schedule = _Schedule.of(outcome, strategies)
    else:
        schedule = _Schedule.complete(spec)
    rows = []
    for a in range(start, stop, _FOLD_BLOCK):
        rows += _fold_trials(spec, cb, range(a, min(a + _FOLD_BLOCK, stop)), schedule)
    return rows


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


def aggregate_rows(
    spec: ExperimentSpec, rows: Sequence[dict], *, cb: Codebook | None = None
) -> StatsReport:
    """The only path from rows to a report. ``cb`` is the experiment's
    codebook if the caller has already resolved it; it is needed only when
    the rows carry survival results, and resolved from ``spec`` if absent.
    Each wrong candidate's survivals are grouped by its effective distance
    from the true entry in that codebook, so a report regenerated from the
    raw CSV lands on the same numbers."""
    status_counts: dict[str, int] = {}
    abort_counts: dict[str, int] = {}
    gap_hist: dict[str, int] = {}
    decoded = 0
    correct = 0
    conf_sum = 0.0
    conf_count = 0
    tick_sum = 0
    present: dict[str, int] = {}  # survived_* key -> rows carrying it
    survivals: dict[tuple[tuple[int, int], str], int] = {}  # (truth, key) -> survivals
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
                present[key] = present.get(key, 0) + 1
                if value:
                    tally = ((row["truth_bob"], row["truth_sonai"]), key)
                    survivals[tally] = survivals.get(tally, 0) + 1
    total = len(rows)
    survived = dict.fromkeys(present, 0)
    by_distance: dict[int, int] = {}
    if present:
        distances = {}
        for (a, b), d in (cb or spec.shared_codebook()).pairwise_distances().items():
            distances[a, b] = distances[b, a] = d
        for (truth, key), count in survivals.items():
            survived[key] += count
            cand = key.removeprefix("survived_")
            d = distances[truth, (int(cand[0]), int(cand[1]))]
            by_distance[d] = by_distance.get(d, 0) + count
    survival_rates = {
        key.removeprefix("survived_"): survived[key] / present[key] for key in sorted(present)
    }
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
        survival_by_distance={str(d): by_distance[d] for d in sorted(by_distance)},
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
