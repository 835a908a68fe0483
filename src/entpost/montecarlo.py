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
streams. A block's rows stay columns (``RowBlock``) from the fold to the
CSV and the report: each distinct terminal is held once, and every row
points at one. Reports are produced by one tally over the blocks, whether a
run's own or the CSV's rows read back; there is no second bookkeeping path
to drift out of sync.
"""
from __future__ import annotations

import csv
import io
import json
import os
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import accumulate, chain, compress, groupby
from operator import add, itemgetter
from typing import IO

import numpy as np

from . import rng as rng_mod
from .codebook import BIT_PAIR_ORDER, Codebook, resolve_codebook
from .netsim import Honest, Strategy, fairness_gap, lie_flips
from .protocol import (AbortReason, DecodeResult, DecodeStatus, Party, ProtocolConfig,
                       SessionOutcome, alice_prepare, decode_block, run_session, terminal_record)

__all__ = [
    "ExperimentSpec",
    "RowBlock",
    "Rows",
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
# the soundness row column of each entry, whether it survived a trial it was wrong in
_SURVIVED = {bits: f"survived_{bits[0]}{bits[1]}" for bits in BIT_PAIR_ORDER}
_TRUTH = {bits: k for k, bits in enumerate(BIT_PAIR_ORDER)}  # a row's truths column
# a row's terminal cells: its DecodeResult's JSON fields, in order
_TERMINAL = ("status", "bob_bit", "sonai_bit", "confidence", "abort_reason")
_BASE_COLUMNS = ["trial", "seed", "truth_bob", "truth_sonai", *_TERMINAL, "ticks", "fairness_gap"]


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


@dataclass(frozen=True)
class _Schedule:
    """What a session's timing fixes, whatever its data: the transport abort
    if any, the tick count and the fairness gap. ``Strategy.plan`` reads
    counters alone, so one schedule serves every trial of a strategy pair
    and config. A session that does not abort ends with each receiver
    holding all of the counterpart's published values."""

    abort: AbortReason | None
    ticks: int
    gap: int

    @classmethod
    def complete(cls, config: ProtocolConfig) -> "_Schedule":
        """Two honest receivers, with a lead of one. At a one-ahead limit of
        1 they alternate, one reveal a tick, and the last arrives at tick
        2n + 1; above it both reveal every tick, so it arrives at n + 1."""
        ticks = 2 * config.n + 1 if config.one_ahead_limit == 1 else config.n + 1
        return cls(None, ticks, 1)

    @classmethod
    def of(cls, outcome: SessionOutcome) -> "_Schedule":
        """The schedule ``outcome`` followed. A decode abort (no consistent
        entry) depends on the data, so only a timeout is kept."""
        reason = outcome.terminal.abort_reason
        return cls(
            abort=None if reason is AbortReason.NO_CONSISTENT_ENTRY else reason,
            ticks=outcome.ticks,
            gap=fairness_gap(outcome.transcript),
        )


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Consecutive rows as columns: the form rows are kept, pickled back
    from workers, tallied and written in. Row i has ``trials[i]`` and
    ``seeds[i]``, true bits ``BIT_PAIR_ORDER[truths[i]]``, terminal
    ``terminals[which[i]]`` (each distinct result once) and the block's ``ticks`` and
    ``gap``. ``survived[i, k]`` is 1 if the entry of bits
    ``BIT_PAIR_ORDER[k]`` survived a trial it was wrong in, 0 if it did not,
    and -1 where the row has no such cell (honest and session rows, and a
    soundness trial's own true entry)."""

    trials: Sequence[int]
    seeds: np.ndarray  # uint64
    truths: np.ndarray  # uint8
    terminals: tuple[DecodeResult, ...]
    which: np.ndarray  # intp
    ticks: int
    gap: int
    survived: np.ndarray  # (rows, 4) int8

    def __len__(self) -> int:
        return len(self.trials)

    def row(self, i: int) -> dict:
        """Row i as a dict: the base columns, then a ``survived_ab`` cell for
        each wrong entry in bit-pair order."""
        t = self.terminals[self.which[i]]
        truth = BIT_PAIR_ORDER[self.truths[i]]
        row = {"trial": self.trials[i], "seed": int(self.seeds[i]), "truth_bob": truth[0],
               "truth_sonai": truth[1], **t.to_json_obj(), "ticks": self.ticks,
               "fairness_gap": self.gap}
        for column, cell in zip(_SURVIVED.values(), self.survived[i].tolist()):
            if cell >= 0:
                row[column] = cell == 1
        return row


class Rows(Sequence):
    """The rows of a run, read-only, held as its ``RowBlock``s in trial
    order. Indexing or iterating builds each row's dict on demand, and the
    view equals the list of those dicts."""

    def __init__(self, blocks: Sequence[RowBlock]):
        self.blocks = tuple(blocks)
        self._ends = list(accumulate(map(len, self.blocks)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("row index out of range")
        b = bisect_right(self._ends, index)
        block = self.blocks[b]
        return block.row(index - (self._ends[b] - len(block)))

    def __iter__(self):
        return (block.row(i) for block in self.blocks for i in range(len(block)))

    def __eq__(self, other):
        if isinstance(other, (Rows, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def _fold_trials(spec: ExperimentSpec, cb: Codebook, trials: range, schedule: _Schedule) -> RowBlock:
    """The rows of ``trials`` run on ``schedule``, as one block. Each table
    is the one ``build_world`` prepares from its trial's own seed, drawn for
    the whole block at once. A receiver ends holding its own row and the
    counterpart's published one, a liar's flipped at its ``lie_flips`` as
    ``build_world`` flips it. All views are folded at once. When nobody
    lies both views are the table, so each trial decodes once for both and
    that decode is its terminal (``terminal_record(r, r) == r``); after a
    transport abort nothing is decoded. ``decode_block`` gives the trials of
    one decode key one result object, so ``terminal_record`` runs once per
    distinct pair of results."""
    block_seeds = rng_mod.derive_seeds(spec.seed, (rng_mod.KEY_TRIAL,), trials)
    bits = list(map(spec.trial_bits, trials))
    truths = np.fromiter(map(_TRUTH.__getitem__, bits), np.uint8, len(bits))
    survived = np.full((len(bits), len(BIT_PAIR_ORDER)), -1, dtype=np.int8)
    if schedule.abort is not None:  # the terminal is the abort, whatever the receivers hold
        terminals = [DecodeResult.aborted(schedule.abort)] * len(trials)
    else:
        tables = alice_prepare(block_seeds, spec.noise, bits, cb)
        lies = (spec.strategy_bob.lie, spec.strategy_sonai.lie)
        if not any(lies):
            terminals, alive = decode_block(cb, spec, tables)
            if spec.mode == "soundness":
                # one view per trial: a cell per wrong entry, in bit-pair order
                # however the book lists the entries
                survived[:] = np.fromiter(chain.from_iterable(alive), np.int8, survived.size
                                          ).reshape(survived.shape)[:, list(cb.bit_pair_order)]
                survived[np.arange(len(bits)), truths] = -1
        else:
            views = np.stack((tables, tables), axis=1)  # (trials, receiver, 2, n)
            for side, p in enumerate(lies):
                if p:  # only the counterpart sees the lies
                    views[:, 1 - side, side][lie_flips(block_seeds, side, p, cb.n)] *= -1
            results, _ = decode_block(cb, spec, views.reshape(-1, 2, cb.n))
            pairs = list(zip(results[0::2], results[1::2]))
            distinct = {(id(a), id(b)): (a, b) for a, b in pairs}
            terminal_of = {key: terminal_record(a, b) for key, (a, b) in distinct.items()}
            terminals = [terminal_of[id(a), id(b)] for a, b in pairs]
    # each distinct terminal once, by value: trials of one decode key share
    # a result object, and trials of many keys (noisy ones) share a value
    ids = list(map(id, terminals))
    slot: dict[DecodeResult, int] = {}
    slot_of = {key: slot.setdefault(t, len(slot)) for key, t in dict(zip(ids, terminals)).items()}
    which = np.fromiter(map(slot_of.__getitem__, ids), np.intp, len(ids))
    return RowBlock(trials, block_seeds, truths, tuple(slot), which, schedule.ticks, schedule.gap,
                    survived)


def _run_chunk(spec: ExperimentSpec, cb: Codebook, start: int, stop: int) -> list[RowBlock]:
    """Blocks of trials start..stop-1, folded _FOLD_BLOCK at a time. A
    session chunk runs its first trial on the simulator only for the
    schedule every trial of the chunk is folded on; an honest or soundness
    chunk folds every trial on the complete exchange."""
    if spec.mode == "session":
        seed = rng_mod.derive_seed(spec.seed, rng_mod.KEY_TRIAL, start)
        strategies = {Party.BOB: spec.strategy_bob, Party.SONAI: spec.strategy_sonai}
        outcome = run_session(spec.config(seed=seed), spec.trial_bits(start), strategies, cb=cb)
        schedule = _Schedule.of(outcome)
    else:
        schedule = _Schedule.complete(spec)
    return [_fold_trials(spec, cb, range(a, min(a + _FOLD_BLOCK, stop)), schedule)
            for a in range(start, stop, _FOLD_BLOCK)]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> tuple[Rows, "StatsReport"]:
    """Run all trials and aggregate. The report is identical for any worker
    count because trial seeds depend only on the trial index. The trials are
    split into min(workers, trials) chunks, run by at most one process per
    CPU, each returning its blocks."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cb = spec.shared_codebook()
    chunks = min(workers, spec.trials)
    if chunks == 1:
        blocks = _run_chunk(spec, cb, 0, spec.trials)
    else:
        # chunks <= trials, so every chunk holds at least one trial
        bounds = [spec.trials * i // chunks for i in range(chunks + 1)]
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only to fan out
        with ProcessPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_run_chunk, spec, cb, a, b) for a, b in zip(bounds, bounds[1:])]
            blocks = [block for fut in futures for block in fut.result()]
    rows = Rows(blocks)
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
        """The fields by name; the tallies are the report's own dicts, not copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_text(self) -> str:
        """The report as written to the ``--out`` file and to stdout alike:
        indented JSON with sorted keys and a final newline."""
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def _blocks(rows: Sequence[dict]) -> Sequence[RowBlock]:
    """``rows`` in column form: a run's own ``Rows`` are its blocks, and a
    plain sequence of row dicts (the CSV read back, say) becomes one block
    per run of rows with equal ticks and fairness gap, each distinct
    terminal once. The one reader of row dicts: the tally and the CSV
    writer see only blocks."""
    if isinstance(rows, Rows):
        return rows.blocks
    blocks = []
    for (ticks, gap), run in groupby(rows, itemgetter("ticks", "fairness_gap")):
        run = list(run)
        cells = list(map(itemgetter(*_TERMINAL), run))
        index = {key: i for i, key in enumerate(dict.fromkeys(cells))}
        terminals = tuple(DecodeResult.from_json_obj(dict(zip(_TERMINAL, key))) for key in index)
        truths = map(_TRUTH.__getitem__, map(itemgetter("truth_bob", "truth_sonai"), run))
        survived = [[-1 if cell is None else int(bool(cell))
                     for cell in map(row.get, _SURVIVED.values())] for row in run]
        blocks.append(RowBlock(
            [row["trial"] for row in run], np.array([row["seed"] for row in run], np.uint64),
            np.fromiter(truths, np.uint8, len(run)), terminals,
            np.fromiter(map(index.__getitem__, cells), np.intp, len(run)), ticks, gap,
            np.array(survived, np.int8).reshape(len(run), len(_SURVIVED))))
    return blocks


def aggregate_rows(
    spec: ExperimentSpec, rows: Sequence[dict], *, cb: Codebook | None = None
) -> StatsReport:
    """The only path from rows to a report, a tally over their blocks
    (``_blocks``), so a run's report and the one recomputed from its CSV
    are counted alike. ``cb`` is the experiment's codebook if the caller
    has already resolved it; it is needed only when the rows carry
    survivals, and resolved from ``spec`` if absent. Each wrong candidate's
    survivals are grouped by its effective distance from the true entry in
    that codebook. The decoded confidences are summed left to right in row
    order, one row at a time: never by ``sum()``, which compensates from
    Python 3.12 on, and never as count times confidence, which rounds
    otherwise."""
    statuses: Counter = Counter()
    aborts: Counter = Counter()
    gap_hist: Counter = Counter()
    total = decoded = correct = ticks = 0
    confidence = 0.0
    wide = len(BIT_PAIR_ORDER)
    present = np.zeros(wide, dtype=np.intp)  # candidate -> rows where it was a wrong entry
    survivals = np.zeros((wide, wide), dtype=np.intp)  # (truth, candidate) -> count
    for block in _blocks(rows):
        total += len(block)
        ticks += block.ticks * len(block)
        gap_hist[block.gap] += len(block)
        # each distinct terminal's rows, by true bits
        counts = np.bincount(block.which * wide + block.truths,
                             minlength=len(block.terminals) * wide).reshape(-1, wide)
        for t, count, by_truth in zip(block.terminals, counts.sum(axis=1).tolist(),
                                      counts.tolist()):
            statuses[t.status.value] += count
            if t.abort_reason:
                aborts[t.abort_reason.value] += count
            if t.status is DecodeStatus.DECODED:
                decoded += count
                correct += by_truth[_TRUTH[t.bob_bit, t.sonai_bit]]
        which = block.which.tolist()
        confidences = [t.confidence for t in block.terminals]
        is_decoded = [t.status is DecodeStatus.DECODED for t in block.terminals]
        # one addition per decoded row, left to right in row order
        confidence = reduce(add, compress(map(confidences.__getitem__, which),
                                          map(is_decoded.__getitem__, which)), confidence)
        present += (block.survived >= 0).sum(axis=0)
        hit = (block.truths[:, None] * wide + np.arange(wide))[block.survived == 1]
        survivals += np.bincount(hit, minlength=wide * wide).reshape(wide, wide)
    by_distance: dict[int, int] = {}
    if survivals.any():
        distances = {}
        for (a, b), d in (cb or spec.shared_codebook()).pairwise_distances().items():
            distances[a, b] = distances[b, a] = d
        for (truth, cand), count in np.ndenumerate(survivals):
            if count:
                d = distances[BIT_PAIR_ORDER[truth], BIT_PAIR_ORDER[cand]]
                by_distance[d] = by_distance.get(d, 0) + int(count)
    survived, present = survivals.sum(axis=0).tolist(), present.tolist()
    survival_rates = {f"{a}{b}": survived[k] / present[k]
                      for k, (a, b) in sorted(enumerate(BIT_PAIR_ORDER), key=itemgetter(1))
                      if present[k]}
    return StatsReport(
        mode=spec.mode,
        trials=total,
        seed=spec.seed,
        n=spec.n,
        lam=spec.lam,
        flip_probability=spec.noise,
        delta=spec.delta,
        confidence_target=spec.confidence_target,
        status_counts=dict(sorted(statuses.items())),
        abort_counts=dict(sorted(aborts.items())),
        decode_success_rate=decoded / total,
        correct_rate=correct / total,
        mean_confidence=confidence / decoded if decoded else None,
        mean_ticks=ticks / total,
        fairness_gap_hist={str(gap): gap_hist[gap] for gap in sorted(gap_hist)},
        max_fairness_gap=max(gap_hist, default=0),
        survival_rates=survival_rates,
        survival_by_distance={str(d): by_distance[d] for d in sorted(by_distance)},
        strategy_bob=spec.strategy_bob.describe(),
        strategy_sonai=spec.strategy_sonai.describe(),
    )


def write_rows_csv(rows: Sequence[dict], fp: IO[str]) -> None:
    """The rows as CSV, from their blocks (``_blocks``). The header lists
    the base columns, then each survival column from the first row with a
    cell in it (a row's cells in bit-pair order). Each distinct (truth,
    terminal, survival cells) of a block is spelled out once by the one
    ``csv.writer``; each row's line is its trial and seed, then that
    spelling."""
    blocks = [block for block in _blocks(rows) if len(block)]
    if not blocks:
        return
    columns: dict[int, None] = {}
    for block in blocks:
        has = block.survived >= 0
        first = has.argmax(axis=0).tolist()
        columns.update(dict.fromkeys(sorted(
            (k for k in range(len(first)) if has[first[k], k]), key=first.__getitem__)))
    columns = list(columns)
    names = list(_SURVIVED.values())
    spelling = io.StringIO()
    writer = csv.writer(spelling)
    writer.writerow(_BASE_COLUMNS + [names[k] for k in columns])
    fp.write(spelling.getvalue())
    powers = 3 ** np.arange(len(columns))  # a row's cells, each -1, 0 or 1, as one number
    for block in blocks:
        cells = block.survived[:, columns]
        key = ((block.which * len(BIT_PAIR_ORDER) + block.truths) * 3 ** len(columns)
               + (cells + 1).astype(np.intp) @ powers)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        spelled = []
        for i in first.tolist():
            t = block.terminals[block.which[i]]
            spelling.seek(0)
            spelling.truncate()
            writer.writerow([*BIT_PAIR_ORDER[block.truths[i]], *t.to_json_obj().values(),
                             block.ticks, block.gap,
                             *(None if c < 0 else c == 1 for c in cells[i].tolist())])
            spelled.append(spelling.getvalue())
        fp.write("".join(map("%d,%d,%s".__mod__, zip(block.trials, block.seeds.tolist(),
                                                     map(spelled.__getitem__, inverse.tolist())))))


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


def write_report_json(report: StatsReport, fp: IO[str]) -> str:
    """Write the report's ``to_json_text`` to ``fp`` and return it."""
    text = report.to_json_text()
    fp.write(text)
    return text
