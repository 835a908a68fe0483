"""Batch runner: trial rows, aggregation, worker independence."""

import concurrent.futures
import gc
import hashlib
import io
import itertools
import math
import random
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpost import montecarlo, netsim, protocol
from entpost.codebook import Codebook, reference_codebook, resolve_codebook, save_codebook
from entpost.montecarlo import (
    ExperimentSpec,
    aggregate_rows,
    read_rows_csv,
    run_experiment,
    write_report_json,
    write_rows_csv,
)
from entpost.netsim import WithholdAfter, fairness_gap, parse_strategy, run_session
from entpost.protocol import Party, ProtocolConfig, alice_prepare
from entpost.rng import KEY_TRIAL, derive_seed


class InlinePool:
    """Stands in for the process pool: runs each chunk in this process and
    records the requested size and each chunk's trial span."""

    sizes: list = []
    spans: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.spans.append(args[-2:])
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(InlinePool, "spans", [])
    # run_experiment imports the pool class from here only when it fans out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return InlinePool


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(mode="sideways")
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(delta=0.7)
    # the spec rejects what the protocol config rejects, with the same coercion
    for bad in (dict(n=0), dict(confidence_target=1.0), dict(reveal_first="alice")):
        with pytest.raises(ValueError):
            ProtocolConfig(**bad)
        with pytest.raises(ValueError):
            ExperimentSpec(**bad)
    assert ExperimentSpec(noise=0.1).noise == 0.1
    assert ExperimentSpec(reveal_first="sonai").reveal_first is Party.SONAI
    # batch fields are typed at construction, not deep inside a run
    for trials in (2.5, True, "5", None):
        with pytest.raises(ValueError, match="trials must be an integer"):
            ExperimentSpec(trials=trials)
    for bits in ((0,), (2, 0), (0, 1, 1), (True, 0), (0.0, 1), "01", [0, 1], 0):
        with pytest.raises(ValueError, match="bits must be"):
            ExperimentSpec(bits=bits)
    assert ExperimentSpec(bits=(1, 0)).bits == (1, 0)
    assert ExperimentSpec(bits=None, trials=3).trials == 3
    # a strategy must be a Strategy, and only session mode plays one
    for name in ("strategy_bob", "strategy_sonai"):
        for bad in ("lie:0.5", None, netsim.Honest):
            with pytest.raises(ValueError, match=f"{name} must be a Strategy"):
                ExperimentSpec(mode="session", **{name: bad})
        for mode in ("honest", "soundness"):
            for strategy in (netsim.LieWithProb(1.0), WithholdAfter(2), netsim.BatchDump()):
                with pytest.raises(ValueError, match="plays only in session mode"):
                    ExperimentSpec(mode=mode, **{name: strategy})
            assert ExperimentSpec(mode=mode, **{name: netsim.Honest()}).mode == mode
        assert ExperimentSpec(mode="session", **{name: WithholdAfter(2)}).mode == "session"


def test_spec_is_a_protocol_config():
    spec = ExperimentSpec(mode="soundness", n=8, lam=4, noise=0.05, delta=0.25,
                          reveal_first="sonai", seed=3, one_ahead_limit=2, timeout_ticks=5,
                          trials=7, codebook="reference")
    assert isinstance(spec, ProtocolConfig)
    # a trial's session runs on the spec at the trial's seed
    trial = replace(spec, seed=99)
    config = ProtocolConfig(n=8, lam=4, noise=0.05, delta=0.25, reveal_first="sonai",
                            seed=99, one_ahead_limit=2, timeout_ticks=5)
    for f in fields(ProtocolConfig):
        assert getattr(trial, f.name) == getattr(config, f.name), f.name


def test_trial_bits_cycles_all_four_by_default():
    spec = ExperimentSpec(trials=8, seed=1)
    assert [spec.trial_bits(t) for t in range(4)] == [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert spec.trial_bits(4) == (0, 0)
    fixed = ExperimentSpec(trials=8, seed=1, bits=(1, 0))
    assert fixed.trial_bits(3) == (1, 0)


def test_shared_codebook_sources(tmp_path):
    spec = ExperimentSpec(n=8, lam=4, seed=5, trials=1)
    generated = spec.shared_codebook()
    assert generated == ExperimentSpec(n=8, lam=4, seed=5, trials=1).shared_codebook()

    ref_spec = ExperimentSpec(n=8, lam=4, seed=5, trials=1, codebook="reference")
    assert ref_spec.shared_codebook() == reference_codebook()

    path = tmp_path / "book.json"
    save_codebook(generated, path)
    file_spec = ExperimentSpec(n=8, lam=4, seed=5, trials=1, codebook=str(path))
    assert file_spec.shared_codebook() == generated

    with pytest.raises(ValueError):
        ExperimentSpec(n=16, lam=4, seed=5, trials=1, codebook="reference").shared_codebook()


def test_honest_row_shape_and_seed_addressing():
    spec = ExperimentSpec(mode="honest", n=8, lam=4, seed=9, trials=4, codebook="reference")
    row = run_experiment(spec)[0][2]
    assert row["trial"] == 2
    assert row["seed"] == derive_seed(9, KEY_TRIAL, 2)
    assert (row["truth_bob"], row["truth_sonai"]) == spec.trial_bits(2)
    assert row["status"] in ("decoded", "undecided", "abort")
    assert row["ticks"] == 17
    assert row["fairness_gap"] == 1


def test_soundness_rows_track_every_wrong_entry():
    spec = ExperimentSpec(
        mode="soundness", n=8, lam=4, seed=2, trials=1, bits=(0, 0), codebook="reference"
    )
    row = run_experiment(spec)[0][0]
    assert set(k for k in row if k.startswith("survived_")) == {
        "survived_11", "survived_01", "survived_10"
    }
    assert all(isinstance(row[k], bool) for k in row if k.startswith("survived_"))


def test_entry_order_of_the_book_never_changes_soundness_rows(tmp_path):
    # rows, their column order and so the CSV bytes read the entries in
    # bit-pair order, however the book lists them
    ref = reference_codebook()
    path = tmp_path / "reversed.json"
    save_codebook(Codebook(ref.n, ref.lam, ref.entries[::-1]), path)
    for noise, delta in ((0.0, 0.0), (0.1, 0.3)):
        outputs = []
        for book in ("reference", str(path)):
            spec = ExperimentSpec(mode="soundness", n=8, lam=4, noise=noise, delta=delta,
                                  seed=3, trials=40, codebook=book)
            buf = io.StringIO()
            write_rows_csv(run_experiment(spec)[0], buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


def test_soundness_report_buckets_survivals_by_distance():
    spec = ExperimentSpec(
        mode="soundness", n=8, lam=4, seed=6, trials=400, bits=(0, 0), codebook="reference"
    )
    rows, report = run_experiment(spec)
    # from truth 00 the wrong entries sit at distances 4, 7, 7 on the reference book
    per_bits = {
        key: sum(1 for row in rows if row[f"survived_{key}"]) for key in ("11", "01", "10")
    }
    expected = {}
    if per_bits["11"]:
        expected["4"] = per_bits["11"]
    if per_bits["01"] + per_bits["10"]:
        expected["7"] = per_bits["01"] + per_bits["10"]
    assert report.survival_by_distance == expected
    assert report.survival_by_distance.get("4", 0) > 0  # 400 trials at 1/16 stays nonzero
    assert report.survival_rates["11"] == per_bits["11"] / 400


def test_honest_driver_matches_full_simulator():
    # the complete exchange alternates at a one-ahead limit of 1 and runs
    # both receivers every tick above it, so its ticks follow the pacing
    for n, one_ahead, opener in itertools.product((8, 16, 32), range(1, 5), ("bob", "sonai")):
        spec = ExperimentSpec(mode="honest", n=n, lam=4, seed=31 + n + one_ahead, trials=4,
                              reveal_first=opener, one_ahead_limit=one_ahead)
        cb = spec.shared_codebook()
        for trial, row in enumerate(run_experiment(spec)[0]):
            outcome = run_session(replace(spec, seed=row["seed"]), spec.trial_bits(trial), cb=cb)
            terminal = outcome.terminal
            assert row["status"] == terminal.status.value
            assert row["bob_bit"] == terminal.bob_bit
            assert row["sonai_bit"] == terminal.sonai_bit
            assert row["confidence"] == terminal.confidence
            assert row["ticks"] == outcome.ticks == (2 * n + 1 if one_ahead == 1 else n + 1)
            assert row["fairness_gap"] == fairness_gap(outcome.transcript) == 1


def test_session_mode_counts_aborts():
    spec = ExperimentSpec(
        mode="session",
        n=8,
        lam=4,
        seed=12,
        trials=5,
        codebook="reference",
        strategy_sonai=WithholdAfter(2),
    )
    rows, report = run_experiment(spec)
    assert report.status_counts == {"abort": 5}
    assert report.abort_counts == {"timeout": 5}
    assert report.decode_success_rate == 0.0
    assert report.strategy_sonai == "withhold:2"


def test_a_huge_timeout_only_delays_a_session_batch():
    # the chunk's one simulated session skips its idle ticks
    spec = ExperimentSpec(mode="session", n=8, lam=4, seed=12, trials=5, codebook="reference",
                          strategy_bob=WithholdAfter(2), timeout_ticks=16)
    rows, _ = run_experiment(spec)
    started = time.perf_counter()
    later, _ = run_experiment(replace(spec, timeout_ticks=10**9))
    assert time.perf_counter() - started < 1.0
    assert later == [dict(row, ticks=row["ticks"] + 10**9 - 16) for row in rows]


_AGGREGATE_CASES = {
    "honest": (dict(mode="honest"), "decoded"),
    "soundness-cycling": (dict(mode="soundness"), "decoded"),  # blank survival cells
    "session-withhold": (dict(mode="session", strategy_sonai=WithholdAfter(2)), "abort"),
    "session-lie": (dict(mode="session", n=32, lam=8, codebook=None, noise=0.05, delta=0.25,
                         strategy_bob=parse_strategy("lie:0.3")), "undecided"),  # liar terminals
    "honest-noisy": (dict(mode="honest", n=64, lam=16, codebook=None, noise=0.05, delta=0.25),
                     "decoded"),
}


@pytest.mark.parametrize(
    "keywords, status, workers",
    [(*case, workers) for workers in (1, 3) for case in _AGGREGATE_CASES.values()],
    ids=[*_AGGREGATE_CASES, *(f"{name}-workers3" for name in _AGGREGATE_CASES)],
)
def test_report_is_exactly_the_aggregate_of_rows(keywords, status, workers):
    # with 3 workers the chunks come back from their processes as pickled blocks
    spec = replace(ExperimentSpec(n=8, lam=4, seed=8, trials=20, codebook="reference"), **keywords)
    rows, report = run_experiment(spec, workers=workers)
    assert status in report.status_counts  # the case reaches the rows it is here for
    assert aggregate_rows(spec, rows) == report

    # and survives the CSV round trip
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    buf.seek(0)
    assert aggregate_rows(spec, read_rows_csv(buf)) == report
    # row dicts, built or read back, are written in the same bytes as the blocks
    for dicts in (list(rows), read_rows_csv(io.StringIO(buf.getvalue()))):
        again = io.StringIO()
        write_rows_csv(dicts, again)
        assert again.getvalue() == buf.getvalue()


_BASE_HEADER = ("trial,seed,truth_bob,truth_sonai,status,bob_bit,sonai_bit,confidence,"
                "abort_reason,ticks,fairness_gap")


@pytest.mark.parametrize("keywords, header", [
    (dict(mode="soundness", trials=1), _BASE_HEADER + ",survived_11,survived_01,survived_10"),
    (dict(mode="soundness", trials=2),
     _BASE_HEADER + ",survived_11,survived_01,survived_10,survived_00"),
    (dict(mode="soundness", trials=5),
     _BASE_HEADER + ",survived_11,survived_01,survived_10,survived_00"),
    (dict(mode="soundness", bits=(0, 0)), _BASE_HEADER + ",survived_11,survived_01,survived_10"),
    (dict(mode="soundness", bits=(1, 1)), _BASE_HEADER + ",survived_00,survived_01,survived_10"),
    (dict(mode="soundness", bits=(0, 1)), _BASE_HEADER + ",survived_00,survived_11,survived_10"),
    (dict(mode="soundness", bits=(1, 0)), _BASE_HEADER + ",survived_00,survived_11,survived_01"),
    (dict(mode="honest"), _BASE_HEADER),
    (dict(mode="session", strategy_bob=parse_strategy("lie:0.5")), _BASE_HEADER),
    (dict(mode="session", strategy_sonai=WithholdAfter(2)), _BASE_HEADER),
])
def test_csv_header_lists_the_columns_in_first_seen_order(keywords, header):
    # a cycling soundness run adds each survival column the first time a
    # trial has that entry wrong: three columns for one trial, four from two
    spec = replace(ExperimentSpec(n=8, lam=4, seed=5, trials=4, codebook="reference"), **keywords)
    buf = io.StringIO()
    write_rows_csv(run_experiment(spec)[0], buf)
    assert buf.getvalue().split("\r\n", 1)[0] == header


@pytest.mark.parametrize("trials", [1, 2, 5])
def test_rows_are_the_dicts_of_one_simulated_session_per_trial(trials):
    # each trial's row, keys in order, is its own honest session's: the
    # terminal and schedule, then a survival cell per wrong entry in
    # bit-pair order from the receivers' final alive mask
    spec = ExperimentSpec(mode="soundness", n=8, lam=4, seed=5, trials=trials,
                          codebook="reference")
    cb = spec.shared_codebook()
    expected = _simulator_rows(spec)
    for row in expected:
        outcome = run_session(replace(spec, seed=row["seed"]), spec.trial_bits(row["trial"]), cb=cb)
        alive = outcome.receivers[Party.BOB].alive
        assert alive == outcome.receivers[Party.SONAI].alive
        for j in cb.bit_pair_order:
            if cb.entries[j].bits != spec.trial_bits(row["trial"]):
                row[f"survived_{cb.entries[j].bits[0]}{cb.entries[j].bits[1]}"] = alive[j]
    rows = run_experiment(spec)[0]
    assert rows == expected and expected == rows
    assert [list(row) for row in rows] == [list(row) for row in expected]
    assert len(rows) == trials
    assert rows[-1] == expected[-1] and rows[::-1] == expected[::-1]
    with pytest.raises(IndexError):
        rows[trials]


@pytest.mark.parametrize("trials", [5000, 20_000])
def test_a_run_keeps_its_rows_as_columns(trials):
    # a row dict held per trial retained about 540 bytes; a block's columns
    # hold its seeds, truths, terminal indices and survival cells
    spec = ExperimentSpec(mode="soundness", n=8, lam=4, seed=3, trials=trials,
                          codebook="reference")
    run_experiment(replace(spec, trials=300))  # the book and lazy set-up, outside the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_experiment(spec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result[0]) == trials
    assert retained / trials <= 128


def test_worker_count_never_changes_results():
    spec = ExperimentSpec(mode="honest", n=8, lam=4, seed=14, trials=9, codebook="reference")
    rows1, report1 = run_experiment(spec, workers=1)
    rows3, report3 = run_experiment(spec, workers=3)
    assert rows1 == rows3
    assert report1 == report3
    # more workers than trials still covers every trial exactly once
    rows99, report99 = run_experiment(spec, workers=99)
    assert rows99 == rows1
    assert report99 == report1


def test_huge_worker_count_starts_at_most_one_process_per_cpu(monkeypatch, inline_pool):
    spec = ExperimentSpec(mode="soundness", n=8, lam=4, seed=14, trials=9, codebook="reference")
    rows1, report1 = run_experiment(spec, workers=1)
    pools, spans = inline_pool.sizes, inline_pool.spans
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    rows, report = run_experiment(spec, workers=10**9)
    assert pools == [3]
    assert spans == [(t, t + 1) for t in range(9)]  # one chunk per trial
    assert rows == rows1
    assert report == report1
    # fewer chunks than CPUs, and an unknown CPU count
    run_experiment(ExperimentSpec(mode="honest", n=8, lam=4, seed=14, trials=2), workers=10**9)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    run_experiment(spec, workers=4)
    assert pools == [3, 2, 1]


def test_report_json_is_stable(tmp_path):
    spec = ExperimentSpec(mode="honest", n=8, lam=4, seed=4, trials=6, codebook="reference")
    _, report = run_experiment(spec)
    a, b = io.StringIO(), io.StringIO()
    write_report_json(report, a)
    write_report_json(report, b)
    assert a.getvalue() == b.getvalue()
    assert '"decode_success_rate"' in a.getvalue()


def test_noisy_experiment_aggregates_cleanly():
    spec = ExperimentSpec(
        mode="honest", n=64, lam=16, seed=6, trials=30,
        noise=0.05, delta=0.25,
    )
    rows, report = run_experiment(spec)
    assert report.trials == 30
    assert 0.0 <= report.decode_success_rate <= 1.0
    assert report.correct_rate <= report.decode_success_rate
    if report.mean_confidence is not None:
        assert 0.0 <= report.mean_confidence <= 1.0


# sha256 of the CSV followed by the report JSON of run_experiment, recorded
# before the batch fold replaced the per-trial receivers (the session cases
# before pacing moved into ProtocolConfig). Each case is (mode, n, lam,
# codebook, noise, delta, reveal_first, bits, trials, workers), optionally
# followed by a dict of extra spec keywords: strategy texts and pacing
# fields. The base seed is n * 100 + trials.
PINNED_EXPERIMENTS = [
    (("honest", 8, 4, "reference", 0.0, 0.0, "bob", None, 40, 1),
     "0cfabaf60365c7854c6e560e6c59d9e876d9491674b4d74a069de02ac14a29ab"),
    (("honest", 8, 4, "reference", 0.0, 0.2, "sonai", (1, 1), 40, 1),
     "81d45957630de177cbde303ca269986efb9a68be5fc553cb0fc34c4e2108483d"),
    (("honest", 8, 4, "reference", 0.05, 0.0, "bob", None, 30, 1),
     "e8d6779e780e0b45ecb239261c8d22ab79d70e2c2ebce332450a7ca3a591ec59"),
    (("soundness", 8, 4, "reference", 0.0, 0.0, "bob", (0, 0), 60, 1),
     "7e7064fd2c164d0445506b3d4cedefffda2d6735795c9cd765b978aaed5c03d7"),
    (("soundness", 8, 4, "reference", 0.0, 0.25, "sonai", None, 60, 2),
     "ebae8c300d7f6c6fe180627b81b5f57ce0fceafc604b2d5f2cbff12f74a71733"),
    (("soundness", 8, 4, "reference", 0.05, 0.25, "bob", (1, 0), 40, 1),
     "5858c522ca2cfb4dfb2199c38345ca05e7ebf68d43f0b33e29ca290b2062f50d"),
    (("soundness", 8, 3, None, 0.0, 0.0, "sonai", None, 50, 1),
     "afdc86c4551165dc45873187e0e5b71b7f5174dcfeb238ed89796051bd455e75"),
    (("honest", 32, 8, None, 0.0, 0.0, "sonai", None, 30, 2),
     "3cfcb69448d8b43d40de53d6600d43916dc8c928eddc2fe76b956e554f1f18d9"),
    (("honest", 32, 8, None, 0.1, 0.3, "bob", None, 30, 1),
     "bcc5cededc648853555ed25c3401dde868f984fd23298cb18fa8c9282080316b"),
    (("soundness", 32, 4, None, 0.0, 0.1, "bob", (0, 1), 40, 1),
     "db0291a8d98ea33ccf9c41467f581183b92c897e2a19a9569a80ea60da0488fe"),
    (("soundness", 32, 8, None, 0.05, 0.25, "sonai", None, 30, 2),
     "9c634349b33becbab0438e1fc177a6858bb473383dc4ad29cae133dea03ecb11"),
    (("honest", 256, 16, None, 0.05, 0.25, "bob", None, 8, 1),
     "f4695745183237a16d9360c93d4461bc62df4e3c9ecc9f066cbabc963699c1f7"),
    (("honest", 256, 16, None, 0.0, 0.0, "sonai", (1, 1), 6, 2),
     "0528d0b82fefbe2e10ae4624152466ac7be56246f1077ba15b9a721ae3548c0e"),
    (("soundness", 256, 16, None, 0.0, 0.1, "bob", None, 6, 1),
     "d899a5cbaa15b5e37f4fbb96e9420dfefcb552112684fc88f61b0255351ee424"),
    (("session", 8, 4, "reference", 0.0, 0.0, "bob", None, 24, 1),
     "43adb54a80b27c70d346173bef13e0737a21405af28eb8962ec2e5181f91adc8"),
    (("session", 8, 4, "reference", 0.0, 0.0, "sonai", None, 20, 2,
      dict(strategy_sonai="withhold:3")),
     "550558f612d7b824c7012d19c666b21c6d72d0cb6903b30aa59c99226277f975"),
    (("session", 8, 4, "reference", 0.05, 0.25, "bob", (1, 0), 22, 1,
      dict(strategy_bob="batchdump")),
     "2627fd3c3c9c7601ad7286fd46da09aea0fcb109d62769744c9c42aed4a7008b"),
    (("session", 32, 8, None, 0.05, 0.25, "sonai", None, 16, 2,
      dict(strategy_bob="lie:0.3")),
     "779e0d33faa37066a81d922573dc372a6d049ff00013ce70b0bb8a19eb984c5e"),
    (("session", 32, 8, None, 0.0, 0.0, "bob", None, 18, 1,
      dict(strategy_sonai="withhold:9", one_ahead_limit=2, timeout_ticks=5)),
     "07e21d0095359f09f755a5dca7c1f387983af1b05c4ca2ceaafd255f577d3a18"),
    (("session", 8, 4, "reference", 0.05, 0.25, "sonai", None, 26, 2,
      dict(strategy_bob="withhold:4", strategy_sonai="lie:0.3", one_ahead_limit=2,
           timeout_ticks=5)),
     "17a665e650d26db6a0fa520bc9d1d658cd2b89d0afb6985fe42b4a7a27740451"),
    (("session", 32, 8, None, 0.0, 0.0, "sonai", (0, 1), 14, 1,
      dict(strategy_sonai="batchdump", one_ahead_limit=2, timeout_ticks=5)),
     "eec8f284becfc3342b5502ab2bd27f63d0e119f3e6e13bdc10b8861eee1d9d67"),
    # recorded while every session trial still ran the tick loop
    (("session", 16, 4, None, 0.05, 0.25, "bob", None, 20, 1,
      dict(strategy_bob="lie:1.0", strategy_sonai="lie:0.5")),
     "c6b8dfd17c107ca271985be37d41a867f8e5b71305079e58ea64ac7a293f94a0"),
    (("session", 8, 4, "reference", 0.05, 0.25, "bob", None, 12, 2,
      dict(strategy_bob="withhold:0", strategy_sonai="lie:0.5", timeout_ticks=3)),
     "7ffa0758fa495c78c94ff5ce8f1c259b6d64182d7248f400b7ed59a4b79b6f58"),
    (("session", 8, 4, "reference", 0.0, 0.0, "sonai", (0, 1), 2, 2,
      dict(strategy_sonai="lie:0.5")),
     "161c4d58c0595aa819b492abf4c377766a97aeaaffede931b4d198be82e29f3b"),
    (("session", 64, 16, None, 0.0, 0.0, "bob", None, 40, 1, dict(strategy_bob="lie:0.1")),
     "1882fb379beaa4fe300635df9de58ecd6b65ef23c45384b9b5074feb00240a56"),
    (("session", 16, 4, None, 0.1, 0.3, "sonai", None, 15, 2,
      dict(strategy_bob="batchdump", strategy_sonai="lie:0.2", one_ahead_limit=3)),
     "a9546fb2b49df32488e6b0b4e04cc72b633b6d8fbc279bac8da4a50eddc8f13a"),
]


def _case_id(case) -> str:
    mode, n, lam, book, eps, delta, opener, bits, trials, workers, *extra = case
    bits_id = "cycling" if bits is None else f"{bits[0]}{bits[1]}"
    extra_id = "".join(f"-{key}={value}" for keywords in extra for key, value in keywords.items())
    return (f"{mode}-n{n}-{book or 'gen'}-eps{eps}-delta{delta}-{opener}-{bits_id}"
            f"-t{trials}-w{workers}{extra_id}")


def _extra_keywords(extra: list) -> dict:
    """The spec keywords of a case's optional trailing dict, strategies parsed."""
    return {key: parse_strategy(value) if key.startswith("strategy_") else value
            for keywords in extra for key, value in keywords.items()}


@pytest.mark.parametrize(
    "case, digest", PINNED_EXPERIMENTS, ids=[_case_id(case) for case, _ in PINNED_EXPERIMENTS]
)
def test_montecarlo_bytes_are_pinned(case, digest):
    assert _pinned_digest(case) == digest


def _pinned_digest(case) -> str:
    mode, n, lam, book, eps, delta, opener, bits, trials, workers, *extra = case
    spec = ExperimentSpec(mode=mode, n=n, lam=lam, codebook=book, noise=eps, delta=delta,
                          reveal_first=opener, bits=bits, trials=trials, seed=n * 100 + trials,
                          **_extra_keywords(extra))
    rows, report = run_experiment(spec, workers=workers)
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    write_report_json(report, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _compensated_sum(values, start=0):
    """Neumaier summation, the algorithm of ``sum()`` over floats from Python 3.12."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("case_id", [
    "honest-n8-reference-eps0.05-delta0.0-bob-cycling-t30-w1",
    "honest-n32-gen-eps0.1-delta0.3-bob-cycling-t30-w1",
    # noiseless, with undecided rows whose confidences sum survival chances
    "soundness-n8-reference-eps0.0-delta0.25-sonai-cycling-t60-w2",
])
def test_pins_hold_where_sum_is_compensated(monkeypatch, inline_pool, case_id):
    # the decode and the aggregation sum their floats left to right, so a
    # builtin sum() that compensates, as from Python 3.12, changes no byte
    # of these runs; the chunks run in this process, where the shadow holds
    for module in (protocol, montecarlo):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    case, digest = next((case, digest) for case, digest in PINNED_EXPERIMENTS
                        if _case_id(case) == case_id)
    assert _pinned_digest(case) == digest


def test_mean_confidence_sums_left_to_right_in_row_order(monkeypatch):
    # 2^-54 is under half an ulp of 1.0, so each addition after the first
    # rounds back to 1.0; a compensated sum() (from Python 3.12), math.fsum
    # or np.sum's pairwise sum would keep some of the eight
    monkeypatch.setattr(montecarlo, "sum", _compensated_sum, raising=False)
    rows = [dict(trial=t, seed=t, truth_bob=0, truth_sonai=0, status="decoded", bob_bit=0,
                 sonai_bit=0, confidence=1.0 if t == 0 else 2.0**-54, abort_reason=None,
                 ticks=17, fairness_gap=1) for t in range(9)]
    assert aggregate_rows(ExperimentSpec(n=8, lam=4, trials=9), rows).mean_confidence == 1.0 / 9
    assert aggregate_rows(ExperimentSpec(n=8, lam=4, trials=9), rows[::-1]).mean_confidence == (
        (1.0 + 2.0**-51) / 9)


@pytest.mark.parametrize("mode, noise, delta", [
    ("honest", 0.0, 0.0), ("soundness", 0.0, 0.2), ("soundness", 0.05, 0.25),
])
def test_fold_block_size_never_changes_rows(monkeypatch, mode, noise, delta):
    spec = ExperimentSpec(mode=mode, n=8, lam=4, seed=21, trials=20, noise=noise, delta=delta,
                          codebook="reference", reveal_first="sonai")
    rows, report = run_experiment(spec)
    for block in (3, 1):
        monkeypatch.setattr(montecarlo, "_FOLD_BLOCK", block)
        assert run_experiment(spec) == (rows, report)


_BOOKS = {(n, lam): resolve_codebook(None, n, lam, seed=1) for n, lam in ((7, 3), (9, 4), (16, 6))}
_BOOKS[8, 4] = reference_codebook()


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from(sorted(_BOOKS)),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**140)),
    # the first index lands anywhere, on either side of 2**32 too, where
    # the spawn key grows a word
    start=st.one_of(st.integers(0, 1000), st.integers(2**32 - 40, 2**32 + 5)),
    count=st.integers(1, 40),
    noise=st.sampled_from([0.0, 0.05, 0.3]),
    bits=st.sampled_from([None, (0, 0), (1, 0)]),
    mode=st.sampled_from(["honest", "soundness"]),
)
def test_fold_tables_equal_trial_by_trial_preparation(size, seed, start, count, noise, bits, mode):
    # a fold block is seeded and drawn at once; each table must be the one
    # alice_prepare gives a block of one at that trial's own derive_seed
    n, lam = size
    cb = _BOOKS[size]
    spec = ExperimentSpec(mode=mode, n=n, lam=lam, seed=seed, noise=noise, bits=bits,
                          delta=0.25 if noise else 0.0, trials=start + count)
    captured, prepare = [], montecarlo.alice_prepare

    def spy(*args):
        tables = prepare(*args)
        captured.append(tables)
        return tables

    trials = range(start, start + count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "alice_prepare", spy)
        block = montecarlo._fold_trials(spec, cb, trials, None, 2 * spec.n + 1, 1)
    seeds = [derive_seed(seed, KEY_TRIAL, t) for t in trials]
    assert block.seeds.tolist() == seeds
    # each trial's own substreams, drawn by numpy's own generator
    expected = np.stack([alice_prepare([s], noise, [spec.trial_bits(t)], cb)[0]
                         for s, t in zip(seeds, trials)])
    (tables,) = captured
    assert tables.dtype == expected.dtype and np.array_equal(tables, expected)


def _simulator_rows(spec: ExperimentSpec) -> list[dict]:
    """The rows of ``spec``'s trials, each run on its own simulated session."""
    cb = spec.shared_codebook()
    strategies = {Party.BOB: spec.strategy_bob, Party.SONAI: spec.strategy_sonai}
    rows = []
    for trial in range(spec.trials):
        seed = derive_seed(spec.seed, KEY_TRIAL, trial)
        bits = spec.trial_bits(trial)
        outcome = run_session(replace(spec, seed=seed), bits, strategies, cb=cb)
        t = outcome.terminal
        rows.append(dict(
            trial=trial, seed=seed, truth_bob=bits[0], truth_sonai=bits[1], status=t.status.value,
            bob_bit=t.bob_bit, sonai_bit=t.sonai_bit, confidence=t.confidence,
            abort_reason=t.abort_reason.value if t.abort_reason else None, ticks=outcome.ticks,
            fairness_gap=fairness_gap(outcome.transcript),
        ))
    return rows


STRATEGY_TEXTS = ("honest", "batchdump", "lie:0.05", "lie:1.0", "withhold:0", "withhold:3")
STRATEGY_PAIRS = [(bob, sonai) for bob in STRATEGY_TEXTS for sonai in STRATEGY_TEXTS]


@pytest.mark.parametrize("index, pair", list(enumerate(STRATEGY_PAIRS)),
                         ids=["-".join(pair) for pair in STRATEGY_PAIRS])
def test_session_batches_match_one_simulated_session_per_trial(index, pair, inline_pool):
    draw = random.Random(index)  # the rest of the spec, seeded per case
    noise, delta = draw.choice([(0.0, 0.0), (0.05, 0.25), (0.1, 0.3)])
    spec = ExperimentSpec(
        mode="session", n=draw.choice([8, 12, 16]), lam=4, noise=noise, delta=delta,
        reveal_first=draw.choice(["bob", "sonai"]), seed=draw.randrange(10**6),
        one_ahead_limit=draw.randint(1, 3), timeout_ticks=draw.randint(2, 16),
        trials=draw.randint(2, 7), bits=draw.choice([None, (1, 0)]),
        strategy_bob=parse_strategy(pair[0]), strategy_sonai=parse_strategy(pair[1]),
    )
    expected = _simulator_rows(spec)
    for workers in (1, 2):
        assert run_experiment(spec, workers=workers)[0] == expected


def test_a_session_batch_runs_the_tick_loop_once_per_chunk(monkeypatch, inline_pool):
    calls = []
    run_world = netsim.run_world

    def counting(world):
        calls.append(world.config.seed)
        return run_world(world)

    monkeypatch.setattr(netsim, "run_world", counting)
    spec = ExperimentSpec(mode="session", n=8, lam=4, seed=3, trials=7, codebook="reference",
                          strategy_bob=parse_strategy("lie:0.3"))
    for workers in (1, 3, 7):  # one chunk per worker, each simulating its first trial
        calls.clear()
        inline_pool.spans.clear()
        rows = run_experiment(spec, workers=workers)[0]
        starts = [a for a, _ in inline_pool.spans] or [0]
        assert calls == [rows[a]["seed"] for a in starts]
        assert len(calls) == workers
    calls.clear()
    run_experiment(ExperimentSpec(mode="honest", n=8, lam=4, seed=3, trials=7), workers=2)
    assert calls == []


@pytest.mark.parametrize("noise, delta", [(0.0, 0.0), (0.1, 0.3)])
def test_the_decode_and_terminal_rules_run_once_per_key(monkeypatch, noise, delta):
    # decode_block runs the decode rule once per distinct key and returns
    # each result once, in the order its key first appears, with one index
    # per table; a lie: block runs terminal_record once per distinct (bob,
    # sonai) pair of those indices
    cb = reference_codebook()
    counted = {"decode": [], "terminal": []}
    for module, name, tally in ((protocol, "_decode_candidates", "decode"),
                                (montecarlo, "terminal_record", "terminal")):
        def spy(*args, rule=getattr(module, name), tally=tally):
            counted[tally].append(args)
            return rule(*args)

        monkeypatch.setattr(module, name, spy)
    config = ProtocolConfig(n=8, lam=4, noise=noise, delta=delta)
    seeds = [s % 6 for s in range(32)]  # repeated tables, and views of two reveals below
    tables = alice_prepare(seeds, noise, [(0, 0), (1, 1), (0, 1)] * 10 + [(0, 0)] * 2, cb)
    tables[20:, 1, 2:] = 0
    results, which, alive = protocol.decode_block(cb, config, tables)
    done, passed = protocol._fold_checks(cb, tables)
    checks = done.sum(axis=-1)
    violations = checks - passed.sum(axis=-1)
    ranks = protocol._lead_ranks(cb, passed, protocol._alive(checks, violations, delta))
    keys = [tuple(row) for row in (np.hstack((checks, violations)) if noise else ranks).tolist()]
    distinct = list(dict.fromkeys(keys))
    assert len({table.tobytes() for table in tables}) > len(distinct)  # unequal tables share keys
    assert len(counted["decode"]) == len(results) == len(distinct)
    assert which.dtype == np.intp and which.tolist() == [distinct.index(key) for key in keys]
    assert alive.dtype == bool and alive.shape == (len(tables), len(cb.entries))
    assert [results[i] for i in which] == [protocol.decode_block(cb, config, table[None])[0][0]
                                           for table in tables]

    captured, decode_block = [], montecarlo.decode_block

    def keep(*args):
        captured.append(decode_block(*args))
        return captured[-1]

    monkeypatch.setattr(montecarlo, "decode_block", keep)
    spec = ExperimentSpec(mode="session", n=8, lam=4, noise=noise, delta=delta, seed=3, trials=64,
                          codebook="reference", strategy_sonai=parse_strategy("lie:0.3"))
    block = montecarlo._fold_trials(spec, cb, range(64), None, 2 * spec.n + 1, 1)
    ((view_results, index, _),) = captured
    pairs = list(zip(index[0::2].tolist(), index[1::2].tolist()))
    assert 1 < len(set(pairs)) < len(pairs) or noise  # noiseless, many trials share a pair
    assert counted["terminal"] == [(view_results[a], view_results[b])
                                   for a, b in dict.fromkeys(pairs)]
    assert [block.terminals[i] for i in block.which] == [
        protocol.terminal_record(view_results[a], view_results[b]) for a, b in pairs]
    assert len(set(block.terminals)) == len(block.terminals)
