"""Session logic: preparation, transcripts, check tallies, survival ranks,
and decoding. Quantitative expectations were frozen from oracle.py."""

import io
import itertools
import json
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpost import netsim, protocol
from entpost.codebook import (
    Codebook,
    effective_distance,
    make_entry,
    reference_codebook,
    resolve_codebook,
)
from entpost.protocol import (
    AbortReason,
    DecodeResult,
    DecodeStatus,
    Party,
    ProtocolConfig,
    ProtocolViolationError,
    Receiver,
    Transcript,
    alice_prepare,
    decode_transcript,
    prepared_block_from_signs,
    terminal_record,
)
from entpost.montecarlo import ExperimentSpec
from entpost.netsim import parse_strategy, run_message, run_session
from entpost.rng import KEY_NOISE_BOB, KEY_NOISE_SONAI, KEY_PREPARE, substream

from json_junk import junk_transcripts
from oracle import (
    decode_view,
    entry_posterior,
    merged_ties,
    passed_check_rank,
    read_record_per_line,
    survival_count,
)

REF = reference_codebook()


def small_config(**kw):
    base = dict(n=8, lam=4, confidence_target=0.999, seed=1)
    base.update(kw)
    return ProtocolConfig(**base)


def all_signs(n):
    return itertools.product((1, -1), repeat=n)


def alive_bits(receiver):
    """The bits of the entries ``receiver`` still holds alive, in codebook order."""
    return [entry.bits for entry, alive in zip(receiver.codebook.entries, receiver.alive) if alive]


def entry_index(cb, bits):
    return [entry.bits for entry in cb.entries].index(bits)


def reveal_all(receiver, outcomes, order=None):
    """Reveal every counterpart position to ``receiver`` through
    ``observe_reveal``, in ``order`` (0-based positions; default ascending)."""
    values = [int(v) for v in outcomes]
    for q in range(len(values)) if order is None else order:
        receiver.observe_reveal(q + 1, values[q])


def kernel_tallies(receiver):
    """(checks, violations) per entry, as the check kernel folds the
    receiver's own view of the table."""
    done, passed = protocol._fold_checks(receiver.codebook, receiver.table)
    checks = done.sum(axis=-1)
    return checks.tolist(), (checks - passed.sum(axis=-1)).tolist()


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n=0)
    with pytest.raises(ValueError):
        ProtocolConfig(delta=0.5)
    with pytest.raises(ValueError):
        ProtocolConfig(delta=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(confidence_target=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(confidence_target=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(reveal_first=Party.ALICE)
    # numbers and party names are accepted and converted
    cfg = ProtocolConfig(noise=0.05, reveal_first="sonai")
    assert cfg.noise == 0.05
    assert cfg.reveal_first is Party.SONAI
    assert type(ProtocolConfig(noise=0).noise) is float
    # a negative zero is stored as 0.0, so no report prints "-0.0"
    assert math.copysign(1.0, ProtocolConfig(noise=-0.0).noise) == 1.0
    with pytest.raises(ValueError, match=r"flip probability must lie in \[0, 0.5\], got 0.6"):
        ProtocolConfig(noise=0.6)
    # anything but a number is refused at construction, a numeric string too
    for bad in (True, False, "0.1", None):
        with pytest.raises(ValueError, match="noise must be a number"):
            ProtocolConfig(noise=bad)
    # sizes and pacing are integers and tolerances numbers, checked before
    # their ranges, directly and through a batch spec
    for make in (ProtocolConfig, ExperimentSpec):
        for field, bad, message in (
            ("n", 8.5, "n must be an integer, got 8.5"),
            ("timeout_ticks", 2.5, "timeout_ticks must be an integer, got 2.5"),
            ("one_ahead_limit", True, "one_ahead_limit must be an integer, got True"),
            ("delta", "0.1", "delta must be a number, got '0.1'"),
            ("lam", 4.0, "lam must be an integer, got 4.0"),
            ("confidence_target", True, "confidence_target must be a number, got True"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", 7.0, "seed must be an integer, got 7.0"),
            ("seed", "7", "seed must be an integer, got '7'"),
            ("seed", -1, "seed must be non-negative, got -1"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make(**{field: bad})
    assert ProtocolConfig(seed=2**130 + 17).seed == 2**130 + 17  # any size of entropy
    assert ProtocolConfig(delta=0).delta == 0  # an int is a number


# -- preparation --------------------------------------------------------------


def test_prepared_block_honors_every_pairing():
    for entry in REF.entries:
        for signs in [(1,) * 8, (-1,) * 8, (1, -1, 1, -1, 1, -1, 1, -1)]:
            table = prepared_block_from_signs(entry, signs)
            assert table.shape == (2, 8) and table.dtype == np.int8
            for k in range(1, 9):
                partner = entry.partner_arrays[0][k - 1] + 1
                assert table[0, k - 1] == -table[1, partner - 1]


def test_alice_prepare_noiseless_passes_all_truth_checks():
    for bits in [(0, 0), (1, 1), (0, 1), (1, 0)]:
        table = alice_prepare([3], 0.0, [bits], REF)[0]
        entry = REF.entry_for_bits(*bits)
        for k in range(1, 9):
            partner = entry.partner_arrays[0][k - 1] + 1
            assert table[0, k - 1] == -table[1, partner - 1]


def test_alice_prepare_noise_uses_dedicated_streams():
    # the block comes from the seed's prepare substream, and each row's
    # flips from that receiver's own noise substream, as numpy draws them
    (clean,) = alice_prepare([5], 0.0, [(0, 0)], REF)
    entry = REF.entry_for_bits(0, 0)
    assert np.array_equal(clean, prepared_block_from_signs(
        entry, substream(5, KEY_PREPARE).integers(0, 2, size=8, dtype=np.int8) * 2 - 1))
    (noisy,) = alice_prepare([5], 0.5, [(0, 0)], REF)
    for side, key in enumerate((KEY_NOISE_BOB, KEY_NOISE_SONAI)):
        flipped = substream(5, key).random(8) < 0.5
        assert np.array_equal(noisy[side], np.where(flipped, -clean[side], clean[side]))
    assert not np.array_equal(clean, noisy)
    # a block of seeds draws each session's table as a block of one does
    block = alice_prepare([9, 5], 0.5, [(1, 1), (0, 0)], REF)
    assert block.shape == (2, 2, 8) and np.array_equal(block[1], noisy)
    assert np.array_equal(block[0], alice_prepare([9], 0.5, [(1, 1)], REF)[0])


def test_receiver_holds_its_own_copy_of_its_row():
    table = alice_prepare([6], 0.0, [(1, 0)], REF)[0]
    config = small_config()
    for side, party in enumerate((Party.BOB, Party.SONAI)):
        receiver = Receiver(party, REF, table[side], config)
        assert np.array_equal(receiver.table[side], table[side])
        assert not receiver.table[1 - side].any()  # the counterpart's row is private
        table[side, 0] = -table[side, 0]
        assert receiver.table[side, 0] == -table[side, 0]  # a copy, not a view
    with pytest.raises(ValueError):
        Receiver(Party.ALICE, REF, table[0], config)


# -- transcripts --------------------------------------------------------------


def parse(text, n=8):
    """The transcript over ``n`` pairs read from ``text``."""
    return Transcript.from_jsonl(io.StringIO(text), n)


def append(t, party, position, outcome):
    """Admit ``party``'s reveal of ``outcome`` at ``position`` to ``t`` as
    the next round, a run of one."""
    t.admit([len(t) + 1], [party], [position], [outcome])


def reveal_lines(transcript):
    """(party, position, outcome) of each reveal, read from the public lines."""
    records = (json.loads(line) for line in transcript.to_jsonl().splitlines())
    return [(Party(r["party"]), r["position"], 1 if r["outcome"] == "+" else -1)
            for r in records if "round" in r]


def test_transcript_round_numbers_must_be_sequential():
    t = Transcript(8)
    append(t, Party.BOB, 1, 1)
    append(t, Party.SONAI, 1, -1)
    assert [json.loads(line)["round"] for line in t.to_jsonl().splitlines()] == [1, 2]
    first = '{"round":1,"party":"bob","position":1,"outcome":"+"}\n'
    with pytest.raises(ProtocolViolationError, match="line 2: round numbers"):
        parse(first + '{"round":3,"party":"sonai","position":1,"outcome":"-"}\n')


def test_transcript_rejects_duplicate_positions():
    t = Transcript(8)
    append(t, Party.BOB, 2, 1)
    append(t, Party.SONAI, 2, -1)
    with pytest.raises(ProtocolViolationError, match="^duplicate reveal of bob position 2$"):
        append(t, Party.BOB, 2, -1)
    assert len(t) == 2
    # a run records all of its rows or none: here its third row repeats its
    # first, and the error names the line given for that row
    with pytest.raises(ProtocolViolationError, match="^line 9: duplicate reveal of sonai position 3$"):
        t.admit([3, 4, 5], [Party.SONAI, Party.BOB, Party.SONAI], [3, 3, 3], [1, 1, -1], [7, 8, 9])
    assert len(t) == 2
    t.admit([3, 4], [Party.SONAI, Party.BOB], [3, 3], [1, 1])
    assert len(t) == 4


def test_transcript_closes_once():
    t = Transcript(8)
    record = DecodeResult(DecodeStatus.DECODED, 1, 0, 1.0)
    t.close(record)
    with pytest.raises(ProtocolViolationError, match="^transcript already closed$"):
        t.close(record)
    with pytest.raises(ProtocolViolationError,
                       match="^transcript already closed by a terminal record$"):
        append(t, Party.BOB, 1, 1)
    assert len(t) == 0
    t.admit([], [], [], [])  # an empty run breaks no rule
    assert len(t) == 0


def test_a_run_names_its_first_breaking_row_and_that_rule():
    # each rule is a per-row mask: the first row any mask marks is named,
    # with the first rule it breaks in the order type, party, closed,
    # round, range, duplicate, whatever the rows after it hold
    huge = 10**30
    malformed = "malformed record: round {} and position {} must be integers, the outcome + or -"
    for rounds, parties, positions, outcomes, message in (
        ([1, 2, 3], ["bob", "sonai", "bob"], [1, 9, 2.5], [1, 1, 1],
         "line 2: reveal position out of range: 9"),
        ([1, 2], ["bob", "alice"], [1, 2.5], [1, 1], "line 2: " + malformed.format(2, 2.5)),
        ([1, 3], ["bob", "alice"], [1, 2], [1, 1], "line 2: alice is not a receiver and cannot reveal"),
        ([1, 3], [Party.BOB, "mallory"], [1, 2], [1, -1],
         "line 2: malformed record: 'mallory' is not a valid Party"),
        ([1, 2], ["bob", ["bob"]], [1, huge], [1, 1], "line 2: malformed record: unhashable type: 'list'"),
        ([1, 2], ["bob", "sonai"], [True, 1], [1, 1], "line 1: " + malformed.format(1, True)),
        ([1, 2], ["bob", "sonai"], [1, 1], [1, 0], "line 2: " + malformed.format(2, 1)),
        ([1, huge], ["bob", "sonai"], [1, huge], [1, 1],
         f"line 2: round numbers must increase by one: expected 2, got {huge}"),
        ([1, 2], ["bob", "sonai"], [1, -huge], [1, 1], f"line 2: reveal position out of range: {-huge}"),
        ([1, 2, 3], ["bob", "sonai", "sonai"], [1, 4, 4], [1, 1, -1],
         "line 3: duplicate reveal of sonai position 4"),
    ):
        t = Transcript(8)
        with pytest.raises(ProtocolViolationError, match=f"^{re.escape(message)}$"):
            t.admit(rounds, parties, positions, outcomes, [1, 2, 3][:len(rounds)])
        assert len(t) == 0


def test_run_session_admits_its_transcript_in_one_call():
    # the simulator keeps its reveals in plain lists and admits them as one
    # run just before the terminal line closes the record
    for strategy in ("honest", "withhold:3", "batchdump"):
        with mock.patch.object(Transcript, "admit", autospec=True,
                               side_effect=Transcript.admit) as admits:
            outcome = run_session(small_config(), (1, 0), {Party.BOB: parse_strategy(strategy)},
                                  cb=REF)
        assert admits.call_count == 1, strategy
        transcript, rounds, *_ = admits.call_args.args
        assert transcript is outcome.transcript
        assert list(rounds) == list(range(1, len(transcript) + 1))


def test_transcript_jsonl_round_trip():
    t = Transcript(8)
    append(t, Party.BOB, 3, 1)
    append(t, Party.SONAI, 5, -1)
    t.close(DecodeResult(DecodeStatus.UNDECIDED, None, None, 0.25))
    text = t.to_jsonl()
    assert text == (
        '{"round":1,"party":"bob","position":3,"outcome":"+"}\n'
        '{"round":2,"party":"sonai","position":5,"outcome":"-"}\n'
        '{"status":"undecided","bob_bit":null,"sonai_bit":null,"confidence":0.25,"abort_reason":null}\n'
    )
    back = parse(text)
    assert reveal_lines(back) == [(Party.BOB, 3, 1), (Party.SONAI, 5, -1)]
    assert back.terminal == t.terminal
    assert back.to_jsonl() == text


def test_transcript_parse_errors_carry_line_numbers():
    with pytest.raises(ProtocolViolationError, match="line 2"):
        parse('{"round":1,"party":"bob","position":1,"outcome":"+"}\nnot json\n')
    dup = (
        '{"round":1,"party":"bob","position":1,"outcome":"+"}\n'
        '{"round":2,"party":"bob","position":1,"outcome":"-"}\n'
    )
    with pytest.raises(ProtocolViolationError, match="duplicate"):
        parse(dup)
    # reveal numbers must be JSON integers: no crash on infinities, no coercion
    first = '{"round":1,"party":"sonai","position":1,"outcome":"+"}\n'
    for line in (
        '{"round":2,"party":"bob","position":Infinity,"outcome":"+"}',
        '{"round":-Infinity,"party":"bob","position":1,"outcome":"+"}',
        '{"round":2,"party":"bob","position":NaN,"outcome":"+"}',
        '{"round":2.9,"party":"bob","position":"2","outcome":"+"}',
        '{"round":2,"party":"bob","position":3.7,"outcome":"+"}',
        '{"round":2,"party":"bob","position":true,"outcome":"+"}',
        '{"round":2,"party":"bob","position":%s,"outcome":"+"}' % ("1" * 5000),
        '{"round":2.0,"party":"bob","position":1,"outcome":"+"}',
        '{"round":2,"party":"bob","position":1,"outcome":"x"}',
        '{"round":2,"party":"bob","position":1,"outcome":1}',
        '{"round":2,"party":"bob","position":1,"outcome":["+"]}',
        '{"round":2,"party":"bob","position":1,"outcome":null}',
    ):
        with pytest.raises(ProtocolViolationError, match="line 2"):
            parse(first + line)
    with pytest.raises(ProtocolViolationError, match="line 1"):  # true == 1, but not an integer
        parse('{"round":true,"party":"bob","position":1,"outcome":"+"}')
    with pytest.raises(AttributeError, match="read"):  # text, not a stream of it
        Transcript.from_jsonl('{"round":1,"party":"bob","position":1,"outcome":"+"}', 8)


def test_terminal_record_round_trip():
    rec = DecodeResult.aborted(AbortReason.TIMEOUT)
    assert DecodeResult.from_json_obj(json.loads(json.dumps(rec.to_json_obj()))) == rec


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([(0.0, 0.0), (0.05, 0.25), (0.1, 0.3)]),
    st.sampled_from(["honest", "withhold:3", "lie:0.2", "batchdump"]),
    st.sampled_from([Party.BOB, Party.SONAI]),
    st.sampled_from([8, 32]),
    st.sampled_from([(0, 0), (1, 1), (0, 1), (1, 0)]),
)
def test_every_session_result_survives_its_terminal_line(seed, noise, strategy, party, n, bits):
    # the terminal line is a DecodeResult, and each result a session reaches,
    # either receiver's or the terminal, has one of the three shapes the
    # line parser accepts, so writing and reading it gives it back
    eps, delta = noise
    config = small_config(n=n, lam=n // 4, noise=eps, delta=delta, seed=seed)
    outcome = run_session(config, bits, {party: parse_strategy(strategy)},
                          cb=REF if n == 8 else None)
    for result in outcome.results.values():
        # so a batch where nobody lies takes each trial's decode as its terminal
        assert terminal_record(result, result) == result
    for result in (*outcome.results.values(), outcome.terminal):
        assert DecodeResult.from_json_obj(result.to_json_obj()) == result
        assert DecodeResult.from_json_obj(json.loads(json.dumps(result.to_json_obj()))) == result
    lines = outcome.transcript.to_jsonl().splitlines()
    assert all(in_written_form(line) for line in lines[:-1])  # every reveal line
    assert not in_written_form(lines[-1])
    assert parse(outcome.transcript.to_jsonl(), n).terminal == outcome.terminal


def test_terminal_line_rejects_values_outside_the_domain():
    reveal = '{"round":1,"party":"bob","position":1,"outcome":"+"}\n'
    valid = {"status": "decoded", "bob_bit": 1, "sonai_bit": 0, "confidence": 1.0,
             "abort_reason": None}
    parse(reveal + json.dumps(valid))
    bad_values = [
        ("bob_bit", "x"), ("bob_bit", 2), ("bob_bit", -1), ("bob_bit", 1.0),
        ("sonai_bit", True), ("sonai_bit", False), ("sonai_bit", [0]),
        ("confidence", float("nan")), ("confidence", float("inf")),
        ("confidence", -0.1), ("confidence", 1.5), ("confidence", 10**400),
        ("confidence", -(10**400)), ("confidence", "0.5"), ("confidence", True),
    ]
    for key, value in bad_values:
        line = json.dumps({**valid, key: value})  # NaN and Infinity as Python's json writes them
        with pytest.raises(ProtocolViolationError, match="line 2"):
            parse(reveal + line)
    with pytest.raises(ProtocolViolationError):
        parse('{"status":"decoded","bob_bit":"x","sonai_bit":0,'
              '"confidence":NaN,"abort_reason":null}')
    # only the three shapes the terminal rule writes: decoded (both bits, no
    # reason), undecided (no bits, no reason), abort (no bits, confidence 0, a reason)
    undecided = {**valid, "status": "undecided", "bob_bit": None, "sonai_bit": None}
    abort = {**undecided, "status": "abort", "confidence": 0.0, "abort_reason": "timeout"}
    for shape in (undecided, abort, {**abort, "abort_reason": "no_consistent_entry"},
                  {**abort, "confidence": 0}):
        parse(reveal + json.dumps(shape))
    contradictions = [
        {**valid, "abort_reason": "timeout"},
        {**valid, "sonai_bit": None},
        {**valid, "bob_bit": None, "sonai_bit": None},
        {**undecided, "bob_bit": 1},
        {**undecided, "abort_reason": "timeout"},
        {**abort, "bob_bit": 0, "sonai_bit": 1},
        {**abort, "sonai_bit": 1},
        {**abort, "confidence": 0.5},
        {**abort, "abort_reason": None},
        {**abort, "abort_reason": 0},
        {**abort, "abort_reason": False},
        {**abort, "abort_reason": ""},
        {**abort, "abort_reason": "bored"},
        {**valid, "abort_reason": 0},
        {**undecided, "abort_reason": False},
    ]
    for line in contradictions:
        with pytest.raises(ProtocolViolationError, match="line 2"):
            parse(reveal + json.dumps(line))


@settings(max_examples=300, deadline=None)
@given(junk_transcripts())
def test_transcript_parser_raises_only_protocol_violations(text):
    try:
        parse(text)
    except ProtocolViolationError:
        pass


# -- receivers and checks -----------------------------------------------------


def build_receivers(bits, config, seed=1):
    table = alice_prepare([seed], config.noise, [bits], REF)[0]
    bob = Receiver(Party.BOB, REF, table[0], config)
    sonai = Receiver(Party.SONAI, REF, table[1], config)
    return table, bob, sonai


def test_observe_rejects_duplicates_and_out_of_range():
    config = small_config()
    _, bob, _ = build_receivers((0, 0), config)
    bob.observe_reveal(4, 1)
    with pytest.raises(ProtocolViolationError):
        bob.observe_reveal(4, 1)
    with pytest.raises(ProtocolViolationError):
        bob.observe_reveal(0, 1)
    with pytest.raises(ProtocolViolationError):
        bob.observe_reveal(9, 1)


def test_truth_entry_survives_every_noiseless_session():
    config = small_config()
    for bits in [(0, 0), (1, 1), (0, 1), (1, 0)]:
        for seed in range(20):
            block, bob, sonai = build_receivers(bits, config, seed=seed)
            reveal_all(bob, block[1])
            reveal_all(sonai, block[0])
            truth = entry_index(REF, bits)
            assert bob.alive[truth]
            assert sonai.alive[truth]
            assert kernel_tallies(bob)[1][truth] == 0
            assert kernel_tallies(sonai)[1][truth] == 0


def test_reveal_order_does_not_change_the_end_state():
    rng = np.random.default_rng(7)
    for noise, delta, seed in itertools.product((0.0, 0.05), (0.0, 0.25), range(5)):
        config = small_config(noise=noise, delta=delta)
        block, bob, sonai = build_receivers((1, 1), config, seed=seed)
        _, bob_shuffled, sonai_shuffled = build_receivers((1, 1), config, seed=seed)
        reveal_all(bob, block[1])
        reveal_all(sonai, block[0])
        reveal_all(bob_shuffled, block[1], order=rng.permutation(8).tolist())
        reveal_all(sonai_shuffled, block[0], order=rng.permutation(8).tolist())
        for ordered, shuffled in ((bob, bob_shuffled), (sonai, sonai_shuffled)):
            assert np.array_equal(ordered.table, shuffled.table)
            assert len(ordered.arrivals) == len(shuffled.arrivals) == 8
            assert kernel_tallies(ordered) == kernel_tallies(shuffled)
            assert ordered.alive == shuffled.alive
            assert ordered.decode() == shuffled.decode()


# a generated book, and the reference book listed out of BIT_PAIR_ORDER
DIFFERENTIAL_BOOKS = {
    "n8-reference": REF,
    "n12": resolve_codebook(None, 12, 4, 2),
    "n8-relisted": Codebook(REF.n, REF.lam, tuple(REF.entries[i] for i in (2, 0, 3, 1))),
}
KEPT_SHARES = [1.0, 0.7, 0.3, 0.0]  # of a row's values a view holds; 0 where it holds none


@settings(max_examples=150, deadline=None)
@given(
    book=st.sampled_from(sorted(DIFFERENTIAL_BOOKS)),
    prepare_noise=st.sampled_from([0.0, 0.1]),
    rule=st.sampled_from([(0.0, 0.0), (0.0, 0.3), (0.1, 0.0), (0.15, 0.35)]),
    target=st.sampled_from([0.999, 0.9, 0.5]),
    trials=st.lists(st.tuples(st.integers(0, 2**32),
                              st.sampled_from([(0, 0), (1, 1), (0, 1), (1, 0)]),
                              st.sampled_from(KEPT_SHARES), st.sampled_from(KEPT_SHARES)),
                    min_size=1, max_size=12),
)
def test_block_decode_equals_the_per_trial_oracle(book, prepare_noise, rule, target, trials):
    # decode_block ranks a whole block at once and runs the decode rule once
    # per distinct key; every trial must decode exactly as the plain-Python
    # oracle decodes its view alone, floats included, and as a block of one
    cb = DIFFERENTIAL_BOOKS[book]
    tables = alice_prepare([seed for seed, *_ in trials], prepare_noise,
                           [bits for _, bits, *_ in trials], cb)
    for table, (seed, _, *kept) in zip(tables, trials):  # partial views, as cut replays hold
        table[np.random.default_rng(seed).random((2, cb.n)) >= np.array(kept)[:, None]] = 0
    eps, delta = rule
    config = ProtocolConfig(n=cb.n, lam=cb.lam, noise=eps, delta=delta, confidence_target=target)
    entries = [(entry.bits, entry.s_j) for entry in cb.entries]
    expected = [decode_view(entries, *table.tolist(), eps, delta, target) for table in tables]
    distinct, which, alive = protocol.decode_block(cb, config, tables)
    results = [distinct[i] for i in which]
    assert alive.dtype == bool and alive.tolist() == [kept for _, kept in expected]
    assert results == [DecodeResult(DecodeStatus(status), bob_bit, sonai_bit, confidence,
                                    None if reason is None else AbortReason(reason))
                       for (status, bob_bit, sonai_bit, confidence, reason), _ in expected]
    assert [protocol.decode_block(cb, config, table[None])[0][0] for table in tables] == results
    # the rank kernel, for every ordered pair of entries, against union-find
    _, passed = protocol._fold_checks(cb, tables)
    rows, cands, refs = (np.array(axis) for axis in zip(*itertools.product(
        range(len(tables)), range(len(entries)), range(len(entries)))))
    ranks = protocol._survival_ranks(cb, passed, rows, cands, refs)
    assert ranks.tolist() == [
        -merged_ties(entries[j][1], entries[i][1], set(np.flatnonzero(passed[t, i]).tolist()))
        for t, i, j in zip(rows, cands, refs)]


def test_first_decode_answers_for_every_prefix_of_the_arrivals():
    # one fold of the final view stands for every prefix: at each count the
    # prefix method decodes exactly when decode_block does on a snapshot of
    # the view after that many arrivals, with the same result, on either side
    rng = np.random.default_rng(11)
    early = 0
    books = {8: REF, 32: resolve_codebook(None, 32, 8, 5)}
    for (noise, delta), n, seed in itertools.product(
        ((0.0, 0.0), (0.05, 0.25), (0.15, 0.3)), books, range(8)
    ):
        cb = books[n]
        config = ProtocolConfig(n=n, lam=cb.lam, noise=noise, delta=delta,
                                confidence_target=0.9, seed=seed)
        table = alice_prepare([seed], noise, [(0, 1)], cb)[0]
        for side, party in enumerate((Party.BOB, Party.SONAI)):
            receiver = Receiver(party, cb, table[side], config)
            snapshots = [receiver.table.copy()]
            for q in rng.permutation(n).tolist():
                receiver.observe_reveal(q + 1, int(table[1 - side, q]))
                snapshots.append(receiver.table.copy())
            distinct, which, _ = protocol.decode_block(cb, config, np.stack(snapshots))
            results = [distinct[i] for i in which]
            decoded = [(count, result) for count, result in enumerate(results)
                       if result.status is DecodeStatus.DECODED]
            for count, result in enumerate(results):
                expected = (count, result) if result.status is DecodeStatus.DECODED else None
                assert receiver.first_decode([count]) == expected
            assert receiver.first_decode(range(n + 1)) == (decoded[0] if decoded else None)
            assert receiver.first_decode(range(0, n + 1, 3)) == next(
                (hit for hit in decoded if hit[0] % 3 == 0), None)
            early += bool(decoded) and decoded[0][0] < n
    assert early


def test_observe_rejects_outcomes_other_than_plus_or_minus_one():
    _, bob, _ = build_receivers((0, 0), small_config())
    for outcome in (0, 2, None):
        with pytest.raises(ProtocolViolationError, match="outcome"):
            bob.observe_reveal(1, outcome)
    assert bob.arrivals == [] and not bob.table[1].any()


# -- survival ranks -----------------------------------------------------------


def test_survival_rank_is_zero_for_matching_pairing():
    config = small_config()
    block, bob, _ = build_receivers((0, 0), config)
    reveal_all(bob, block[1])
    assert bob.survival_log2((0, 0), (0, 0)) == 0


def test_survival_rank_of_single_transposition_is_one_bit():
    # swapping two labels between claimed and true pairing leaves one
    # independent coin: survival chance 1/2
    truth = make_entry((0, 0), (1, 2, 3))
    cand = make_entry((1, 1), (2, 1, 3))
    cb = Codebook(n=3, lam=1, entries=(truth, cand))
    config = ProtocolConfig(n=3, lam=1, seed=0)
    signs = (1, 1, 1)  # the candidate survives this assignment
    block = prepared_block_from_signs(truth, signs)
    bob = Receiver(Party.BOB, cb, block[0], config)
    reveal_all(bob, block[1])
    assert bob.alive[1]
    assert bob.survival_log2((1, 1), (0, 0)) == -1


def test_survival_rank_matches_distance_for_survivors():
    # every assignment that keeps the wrong entry alive shows exactly
    # distance-many bits of coincidence, here 4 for the (0,0)/(1,1) pair
    config = small_config()
    truth_entry = REF.entry_for_bits(0, 0)
    survivors = 0
    for signs in all_signs(8):
        block = prepared_block_from_signs(truth_entry, signs)
        bob = Receiver(Party.BOB, REF, block[0], config)
        reveal_all(bob, block[1])
        if bob.alive[entry_index(REF, (1, 1))]:
            survivors += 1
            assert bob.survival_log2((1, 1), (0, 0)) == -4
    assert survivors == 16


def test_full_machinery_survival_matches_oracle_for_every_pair():
    config = small_config()
    for truth_bits, cand_bits in itertools.permutations(
        [(0, 0), (1, 1), (0, 1), (1, 0)], 2
    ):
        truth_entry = REF.entry_for_bits(*truth_bits)
        expected = survival_count(
            truth_entry.s_j, REF.entry_for_bits(*cand_bits).s_j
        )
        alive = 0
        for signs in all_signs(8):
            block = prepared_block_from_signs(truth_entry, signs)
            bob = Receiver(Party.BOB, REF, block[0], config)
            reveal_all(bob, block[1])
            if bob.alive[entry_index(REF, cand_bits)]:
                alive += 1
        assert alive == expected, (truth_bits, cand_bits)


def test_survival_rank_requires_noiseless_config():
    config = small_config(noise=0.05, delta=0.25)
    block, bob, _ = build_receivers((0, 0), config)
    reveal_all(bob, block[1])
    with pytest.raises(ValueError):
        bob.survival_log2((1, 1), (0, 0))


# -- mid-session views --------------------------------------------------------


def test_partial_views_can_disagree_but_full_views_agree():
    # a candidate can die on one side before the other notices: each party
    # checks against its own private half, and those halves differ
    truth = make_entry((0, 0), (1, 2, 3))
    cand = make_entry((1, 1), (2, 3, 1))
    cb = Codebook(n=3, lam=1, entries=(truth, cand))
    config = ProtocolConfig(n=3, lam=1, seed=0)
    block = prepared_block_from_signs(truth, (1, 1, -1))
    bob = Receiver(Party.BOB, cb, block[0], config)
    sonai = Receiver(Party.SONAI, cb, block[1], config)

    bob.observe_reveal(1, int(block[1][0]))
    sonai.observe_reveal(1, int(block[0][0]))
    assert alive_bits(bob) == [(0, 0), (1, 1)]
    assert alive_bits(sonai) == [(0, 0)]  # the asymmetric moment

    for q in range(1, 3):
        bob.observe_reveal(q + 1, int(block[1][q]))
        sonai.observe_reveal(q + 1, int(block[0][q]))
    assert alive_bits(bob) == [(0, 0)]
    assert alive_bits(sonai) == [(0, 0)]


def test_full_transcript_views_always_agree():
    # after a complete exchange both receivers hold the same table, so they
    # hold the same evidence and decode alike, survival ranks included
    for noise, delta in [(0.0, 0.0), (0.05, 0.25), (0.3, 0.45)]:
        config = small_config(noise=noise, delta=delta)
        for bits, seed in itertools.product([(0, 0), (1, 1), (0, 1), (1, 0)], range(10)):
            block, bob, sonai = build_receivers(bits, config, seed=seed)
            reveal_all(bob, block[1])
            reveal_all(sonai, block[0])
            assert np.array_equal(bob.table, sonai.table)
            assert np.array_equal(bob.table, block)
            assert alive_bits(bob) == alive_bits(sonai)
            assert kernel_tallies(bob) == kernel_tallies(sonai)
            assert bob.decode() == sonai.decode()


# -- decoding -----------------------------------------------------------------


def test_decode_unique_survivor_has_full_confidence():
    config = small_config()
    truth_entry = REF.entry_for_bits(0, 1)
    for signs in list(all_signs(8))[:64]:
        block = prepared_block_from_signs(truth_entry, signs)
        bob = Receiver(Party.BOB, REF, block[0], config)
        reveal_all(bob, block[1])
        result = bob.decode()
        if len(alive_bits(bob)) == 1:
            assert result.status is DecodeStatus.DECODED
            assert (result.bob_bit, result.sonai_bit) == (0, 1)
            assert result.confidence == 1.0
        else:
            assert result.status is DecodeStatus.UNDECIDED


def test_decode_multi_survivor_confidence_discounts_by_rank():
    config = small_config()
    truth_entry = REF.entry_for_bits(0, 0)
    seen_multi = False
    for signs in all_signs(8):
        block = prepared_block_from_signs(truth_entry, signs)
        bob = Receiver(Party.BOB, REF, block[0], config)
        reveal_all(bob, block[1])
        alive = alive_bits(bob)
        if len(alive) < 2:
            continue
        seen_multi = True
        result = bob.decode()
        assert result.status is DecodeStatus.UNDECIDED
        lead = alive[0]
        expected = 1.0 - sum(
            2.0 ** bob.survival_log2(c, lead) for c in alive[1:]
        )
        assert result.confidence == pytest.approx(max(0.0, expected))
    assert seen_multi


def test_decode_aborts_when_nothing_is_consistent():
    config = small_config()
    block, bob, _ = build_receivers((0, 0), config)
    # feed garbage that violates every pairing somewhere
    corrupted = -np.asarray(block[1])
    corrupted[0] = block[1][0]
    reveal_all(bob, corrupted)
    if not alive_bits(bob):
        result = bob.decode()
        assert result.status is DecodeStatus.ABORT
        assert result.abort_reason is AbortReason.NO_CONSISTENT_ENTRY


def test_noisy_decode_confidence_is_the_exact_posterior():
    # a noisy receiver's confidence is the posterior of its lead entry under
    # a uniform prior, enumerated over entry x orientation x flips, both
    # after the full exchange and after every prefix of it
    config = ProtocolConfig(n=64, lam=16, noise=0.05, delta=0.25, seed=5)
    outcome = run_session(config, (1, 0))
    res = outcome.results[Party.BOB]
    assert res.status is DecodeStatus.DECODED
    assert 0.0 <= res.confidence <= 1.0

    rng = substream(77, 4)
    compared = 0
    for eps in (0.05, 0.15, 0.3):
        for session in range(4):
            orderings = []
            while len(orderings) < 4:
                s_j = tuple(int(x) + 1 for x in rng.permutation(4))
                if s_j not in orderings:
                    orderings.append(s_j)
            cb = Codebook(n=4, lam=1, entries=tuple(
                make_entry(bits, s_j) for bits, s_j in zip([(0, 0), (1, 1), (0, 1), (1, 0)], orderings)
            ))
            config = ProtocolConfig(n=4, lam=1, noise=eps, delta=0.49, seed=session)
            block = alice_prepare([session], config.noise, [(0, 1)], cb)[0]
            for side, party in enumerate((Party.BOB, Party.SONAI)):
                receiver = Receiver(party, cb, block[side], config)
                theirs = block[1 - side]
                revealed = {}
                for q in [None, *range(4)]:
                    if q is not None:
                        receiver.observe_reveal(q + 1, int(theirs[q]))
                        revealed[q] = int(theirs[q])
                    result = receiver.decode()
                    if result.status is DecodeStatus.ABORT:
                        continue
                    posterior = entry_posterior(
                        orderings, eps, party.value, block[side].tolist(), revealed
                    )
                    alive = [i for i, alive in enumerate(receiver.alive) if alive]
                    assert result.confidence == pytest.approx(
                        max(posterior[i] for i in alive), rel=1e-12, abs=1e-15
                    )
                    compared += 1
    assert compared > 100


# -- public-record decoding ---------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([(0.0, 0.0), (0.05, 0.25)]),
    st.sampled_from([Party.BOB, Party.SONAI]),
    st.sampled_from([8, 32]),
)
def test_replay_reproduces_private_decodes_exactly(seed, noise, reveal_first, n):
    # at n=8 wrong entries often survive, so confidences depend on which
    # checks the replay folded, not only on how many passed
    eps, delta = noise
    config = ProtocolConfig(
        n=n, lam=n // 4, noise=eps, delta=delta, reveal_first=reveal_first, seed=seed
    )
    outcome = run_session(config, (1, 1), cb=REF if n == 8 else None)
    assert len(outcome.transcript) == 2 * n
    replayed = decode_transcript(outcome.codebook, outcome.transcript, config)
    assert replayed == outcome.results[Party.BOB]
    terminal = outcome.terminal
    assert (replayed.status, replayed.bob_bit, replayed.sonai_bit, replayed.confidence) == (
        terminal.status, terminal.bob_bit, terminal.sonai_bit, terminal.confidence
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([(0.0, 0.0), (0.05, 0.25)]),
    st.sampled_from([Party.BOB, Party.SONAI]),
    st.sampled_from([8, 32]),
    st.sampled_from([(0, 0), (1, 1), (0, 1), (1, 0)]),
)
def test_replay_tallies_every_prefix_like_both_receivers(seed, noise, reveal_first, n, bits):
    # after each reveal, the public table is what both receivers know, and
    # the replay has completed exactly the checks both receivers have
    # completed, with their verdicts; each receiver has completed one check
    # per entry for each arrival; at the end both receivers hold the
    # prepared table
    eps, delta = noise
    config = ProtocolConfig(
        n=n, lam=n // 4, noise=eps, delta=delta, reveal_first=reveal_first, seed=seed
    )
    outcome = run_session(config, bits, cb=REF if n == 8 else None)
    cb = outcome.codebook
    prepared = alice_prepare([config.seed], config.noise, [bits], cb)[0]
    receivers = {party: Receiver(party, cb, prepared[side], config)
                 for side, party in enumerate((Party.BOB, Party.SONAI))}
    bob, sonai = receivers[Party.BOB], receivers[Party.SONAI]
    replay_tallies = []
    real_alive = protocol._alive

    def capture_alive(checks, violations, delta):
        # the replay's tallies, as its elimination rule reads them
        replay_tallies.append((checks[0].tolist(), violations[0].tolist()))
        return real_alive(checks, violations, delta)

    prefix = Transcript(cb.n)
    with mock.patch.object(protocol, "_alive", capture_alive):
        for reveal in [None] + reveal_lines(outcome.transcript):
            if reveal is not None:
                party, position, value = reveal
                append(prefix, party, position, value)
                receivers[party.counterpart()].observe_reveal(position, value)
            decode_transcript(cb, prefix, config)
            checks, violations = replay_tallies.pop()
            table = prefix.table()
            assert np.array_equal(table, np.where(bob.table == sonai.table, bob.table, 0))
            done, passed = protocol._fold_checks(cb, table)
            bob_done, bob_passed = protocol._fold_checks(cb, bob.table)
            sonai_done, sonai_passed = protocol._fold_checks(cb, sonai.table)
            assert np.array_equal(done, bob_done & sonai_done)
            assert np.array_equal(passed, bob_passed & done)
            assert np.array_equal(passed, sonai_passed & done)
            assert not passed[~done].any()
            assert checks == done.sum(axis=-1).tolist()
            assert violations == (done & ~passed).sum(axis=-1).tolist()
            for receiver in (bob, sonai):
                assert kernel_tallies(receiver)[0] == [len(receiver.arrivals)] * len(cb.entries)
    for receiver in (bob, sonai, *outcome.receivers.values()):
        assert np.array_equal(receiver.table, prepared)


def test_replay_of_truncated_transcript_is_partial():
    config = small_config()
    outcome = run_session(config, (0, 0), cb=REF)
    partial = Transcript(REF.n)
    for party, position, value in reveal_lines(outcome.transcript)[:4]:
        append(partial, party, position, value)
    result = decode_transcript(REF, partial, config)
    assert result.status in (DecodeStatus.UNDECIDED, DecodeStatus.DECODED)


ENTRY_ORDER_BOOKS = {"n8-reference": REF, "n16": resolve_codebook(None, 16, 4, 5)}


@pytest.mark.parametrize("noise", [(0.0, 0.0), (0.1, 0.3)])
@pytest.mark.parametrize("book", ENTRY_ORDER_BOOKS)
def test_the_order_a_book_lists_its_entries_in_never_changes_a_decode(book, noise):
    # decoding reads the entries in bit-pair order, so a book listing them
    # reversed or shuffled decodes every prefix of every record alike
    cb = ENTRY_ORDER_BOOKS[book]
    relisted = [Codebook(cb.n, cb.lam, tuple(cb.entries[i] for i in order))
                for order in ((3, 2, 1, 0), (2, 0, 3, 1))]
    eps, delta = noise
    for seed, bits in itertools.product(range(10), [(0, 0), (1, 1), (0, 1), (1, 0)]):
        config = ProtocolConfig(n=cb.n, lam=cb.lam, noise=eps, delta=delta,
                                confidence_target=0.9, seed=seed)
        outcome = run_session(config, bits, cb=cb)
        prefix = Transcript(cb.n)
        for reveal in [None] + reveal_lines(outcome.transcript):
            if reveal is not None:
                append(prefix, *reveal)
            expected = decode_transcript(cb, prefix, config)
            for other in relisted:
                assert decode_transcript(other, prefix, config) == expected


def test_replay_rejects_duplicate_reveals():
    t = Transcript(8)
    append(t, Party.BOB, 1, 1)
    append(t, Party.BOB, 2, -1)
    with pytest.raises(ProtocolViolationError, match="^duplicate reveal of bob position 1$"):
        append(t, Party.BOB, 1, -1)
    assert len(t) == 2
    text = t.to_jsonl() + '{"round":3,"party":"bob","position":1,"outcome":"-"}\n'
    with pytest.raises(ProtocolViolationError, match="^line 3: duplicate reveal of bob position 1$"):
        parse(text)


def test_reveal_positions_are_checked_before_any_size_n_work(monkeypatch):
    # the range rule runs as each line is admitted, so a transcript read for
    # a huge n refuses a bad position with no table of size n in sight
    def refuse(shape, dtype=float):
        raise AssertionError(f"allocated a {shape} table")

    reveal = '{"round":%d,"party":"%s","position":%d,"outcome":"+"}\n'
    huge = Codebook(n=10**15, lam=1, entries=REF.entries)
    monkeypatch.setattr(np, "zeros", refuse)
    for position in (0, -1, 10**15 + 1, 10**30):
        text = reveal % (1, "bob", 1) + "\n" + reveal % (2, "sonai", position)
        with pytest.raises(ProtocolViolationError, match="line 3: reveal position out of range"):
            Transcript.from_jsonl(io.StringIO(text), n=10**15)
    t = Transcript.from_jsonl(io.StringIO(reveal % (1, "bob", 10**15)), n=10**15)
    with pytest.raises(AssertionError, match="allocated"):  # the sentinel sits on the path
        decode_transcript(huge, t, small_config())


class OversizedTranscript(io.TextIOBase):
    """A text stream of ``lines`` reveal lines, bob and sonai taking turns at
    rising positions, each ended by ``end`` and made only when read;
    ``reads`` counts the reads."""

    def __init__(self, lines, end):
        self.reads = 0
        self._reveals = ('{"round":%d,"party":"%s","position":%d,"outcome":"+"}%s' % (
            round_, "bob" if round_ % 2 else "sonai", (round_ + 1) // 2, end)
            for round_ in range(1, lines + 1))
        self._rest = ""

    def read(self, size):
        self.reads += 1
        pieces = [self._rest]
        length = len(self._rest)
        while length < size and (line := next(self._reveals, None)) is not None:
            pieces.append(line)
            length += len(line)
        block = "".join(pieces)
        block, self._rest = block[:size], block[size:]
        return block


def test_parser_stops_at_the_first_bad_line_in_bounded_memory():
    # at n=8 the 17th reveal is bob's position 9; the parser reads the one
    # block holding it and no further, so the peak does not grow with the
    # length of the stream (it moves by a few bytes between runs, where
    # holding 10^6 lines would take ~100 MB), whichever break ends a line
    for end in ("\n", "\f"):
        peaks = {}
        for lines in (10**4, 10**6, 10**4, 10**6):  # the first pair warms caches
            stream = OversizedTranscript(lines, end)
            tracemalloc.start()
            try:
                with pytest.raises(ProtocolViolationError) as caught:
                    Transcript.from_jsonl(stream, 8)
                peaks[lines] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(caught.value) == "line 17: reveal position out of range: 9"
            assert stream.reads == 1
        assert abs(peaks[10**6] - peaks[10**4]) < 1024, end


def test_lines_split_and_number_as_splitlines_splits_the_text():
    # a stream is cut into lines at every break str.splitlines knows, not
    # only at newlines, and its line numbers are those of the whole text
    lines = run_session(small_config(), (1, 0), cb=REF).transcript.to_jsonl().splitlines()
    breaks = ["\n\n", "\f", "\u2029\r", "\x85", "\n \n", "\u2028", "\r\n", "\v", "\x1c"]
    text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
    assert parse(text).to_jsonl() == "".join(line + "\n" for line in lines)
    trickle = io.StringIO(text)
    trickle.read = lambda size: io.StringIO.read(trickle, 1)  # blocks end at every character
    blocks = protocol._line_blocks(trickle)
    assert list(itertools.chain.from_iterable(blocks)) == text.splitlines()
    bad = '{"round":99,"party":"bob","position":1,"outcome":"+"}'
    cut = text.replace(lines[6], bad)
    expected = cut.splitlines().index(bad) + 1
    assert expected == 10  # three blank lines before it
    with pytest.raises(ProtocolViolationError, match=f"^line {expected}: round numbers"):
        parse(cut)


def in_written_form(line):
    """Whether ``line`` is a reveal line in the one form ``to_jsonl`` writes."""
    return protocol._LINE.fullmatch(line + "\n")[1] is not None


def read_columns(text, n):
    """The columns and terminal ``text`` reads to, or the error it raises."""
    try:
        t = parse(text, n)
    except ProtocolViolationError as exc:
        return str(exc)
    return (*t._columns().tolist(), t.terminal and t.terminal.to_json_obj())


def respell(line, style):
    """``line``, a compact JSON record, in another spelling json.loads reads alike."""
    obj = json.loads(line)
    if style == "spaced":
        return json.dumps(obj)
    if style == "reordered":
        return json.dumps(dict(reversed(obj.items())), separators=(",", ":"))
    if style == "escaped":
        return line.replace('"party":"b', '"party":"\\u0062').replace('"party":"s', '"party":"\\u0073')
    return " " + line + "\t"  # padded


RULE_BREAKS = ["skip", "duplicate", "duplicate of the line before", "position 0", "position n+1", "position 10^30", "alice",
               "outcome", "after terminal", "huge round"]


def break_rule(lines, k, kind, n, terminal):
    """``lines`` with reveal line k, or the record around it, breaking one rule."""
    obj = json.loads(lines[k])
    if kind == "after terminal":
        return lines[:k] + [terminal] + lines[k:]
    if kind == "skip":
        obj["round"] += 1
    elif kind.startswith("duplicate") and k:
        earlier = json.loads(lines[k - 1 if kind.endswith("before") else k // 2])
        obj["party"], obj["position"] = earlier["party"], earlier["position"]
    elif kind.startswith("position"):
        obj["position"] = {"position 0": 0, "position n+1": n + 1}.get(kind, 10**30)
    elif kind == "alice":
        obj["party"] = "alice"
    elif kind == "outcome":
        obj["outcome"] = "x"
    line = json.dumps(obj, separators=(",", ":"))
    if kind == "huge round":
        line = line.replace('"round":%d' % obj["round"], '"round":' + "1" * 5000)
    return lines[:k] + [line] + lines[k + 1:]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([8, 1024]),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 0.002, 0.05, 0.5]),
    st.sampled_from([0.0, 0.01, 0.2]),
    st.sampled_from([None, *RULE_BREAKS]),
    st.booleans(),
    st.booleans(),
)
def test_runs_read_as_the_per_line_path_reads(seed, n, share, other, blank, rule, at_edge, closed):
    # a record mixing written-form lines with other spellings, blank lines
    # and CRLF endings, perhaps breaking one rule somewhere (near the first
    # 64 Ki block edge when at_edge), reads to the same columns and
    # terminal, or fails with the same text, as the oracle's per-line
    # reader reads it
    rnd = random.Random(seed)
    keys = rnd.sample([(party, position) for party in ("bob", "sonai")
                       for position in range(1, n + 1)], round(share * 2 * n))
    t = Transcript(n)
    for party, position in keys:
        append(t, Party(party), position, rnd.choice((1, -1)))
    terminal = DecodeResult(DecodeStatus.UNDECIDED, None, None, 0.5)
    if closed:
        t.close(terminal)
    lines = t.to_jsonl().splitlines()
    assert all(in_written_form(line) for line in lines[:len(t)])
    terminal_line = json.dumps(terminal.to_json_obj())
    if rule is not None and keys:
        k = rnd.randrange(len(keys))
        if at_edge:  # the reveal line that holds character 64 Ki, or the last one
            ends = list(itertools.accumulate(len(line) + 2 for line in lines[:len(keys)]))
            k = min(next((i for i, end in enumerate(ends) if end > 1 << 16), k) + rnd.randint(-2, 2),
                    len(keys) - 1)
        lines = break_rule(lines, max(k, 0), rule, n, terminal_line)
    pieces = []
    for line in lines:
        if rnd.random() < other and len(line) < 4300:  # json.loads refuses the huge round
            line = respell(line, rnd.choice(["spaced", "reordered", "escaped", "padded"]))
        if rnd.random() < blank:
            pieces.append(rnd.choice(["\n", "  \r\n", "\r\n"]))
        pieces.append(line + rnd.choice(["\n", "\n", "\r\n"]))
    text = "".join(pieces)
    assert read_columns(text, n) == read_record_per_line(text, n)


def written_record(n):
    """A complete record over ``n`` pairs, as ``to_jsonl`` writes it."""
    t = Transcript(n)
    t.admit(range(1, 2 * n + 1), [Party.BOB, Party.SONAI] * n,
            [position for position in range(1, n + 1) for _ in range(2)], [1, -1] * n)
    t.close(DecodeResult.aborted(AbortReason.TIMEOUT))
    return t.to_jsonl()


def test_a_written_record_reads_its_reveals_by_runs():
    # only the terminal line is parsed as JSON, over two 64 Ki blocks
    text = written_record(1024)
    assert len(text) > 1 << 16
    with mock.patch.object(protocol, "_read_record", side_effect=protocol._read_record) as per_line:
        back = parse(text, 1024)
    assert [c.args[0] for c in per_line.call_args_list] == [text.splitlines()[2048]]
    assert back.to_jsonl() == text
    # a run that breaks a rule records nothing, and the error names its line
    bad = text.replace('{"round":1999,"party":"bob","position":1000,',
                       '{"round":1999,"party":"bob","position":999,')
    with pytest.raises(ProtocolViolationError, match="^line 1999: duplicate reveal of bob position 999$"):
        parse(bad, 1024)


def test_a_block_of_more_lines_than_a_slice_reads_as_one_text():
    # blank lines make one 64 Ki block hold more lines than a slice takes, so
    # it is read as two slices, whose reveals and line numbers must be those
    # of the one text
    lines = written_record(64).splitlines()
    gap = protocol._SLICE + 100  # the blank lines after line 40
    text = "\n".join(lines[:40]) + "\n" * (gap + 1) + "\n".join(lines[40:]) + "\n"
    assert read_columns(text, 64) == read_columns(written_record(64), 64)
    bad = "\n".join(break_rule(text.splitlines(), 70 + gap, "duplicate of the line before", 64,
                               None)) + "\n"
    assert read_columns(bad, 64) == read_record_per_line(bad, 64) == \
        f"line {71 + gap}: duplicate reveal of sonai position 35"


def test_a_record_in_two_spellings_reads_a_slice_at_a_time():
    # every second line respelled, by json.dumps or in another key order,
    # reads to the same columns and terminal as the written record, with the
    # rule check run once per slice and once more at the terminal line, not
    # once per run of written lines
    text = written_record(1024)
    expected = read_columns(text, 1024)
    for respelled in (json.dumps, lambda obj: json.dumps(dict(reversed(obj.items())))):
        mixed = "".join((respelled(json.loads(line)) if k % 2 else line) + "\n"
                        for k, line in enumerate(text.splitlines()))
        with mock.patch.object(Transcript, "_read_lines", autospec=True,
                               side_effect=Transcript._read_lines) as slices, \
                mock.patch.object(Transcript, "admit", autospec=True,
                                  side_effect=Transcript.admit) as checks:
            assert read_columns(mixed, 1024) == expected
        assert checks.call_count <= slices.call_count + 1


def test_decode_refuses_a_transcript_read_for_another_n():
    t = parse('{"round":1,"party":"bob","position":1,"outcome":"+"}', n=9)
    with pytest.raises(ValueError, match="n=9, the codebook over n=8"):
        decode_transcript(REF, t, small_config())


# -- messages -----------------------------------------------------------------


def test_message_framing_validation():
    config = ProtocolConfig(n=8, lam=2, seed=3)
    with mock.patch.object(netsim, "generate_codebook", side_effect=AssertionError):
        # refused before any codebook is built
        with pytest.raises(ValueError, match="message lengths differ"):
            run_message("101", "10", config)
        with pytest.raises(ValueError, match="non-empty"):
            run_message("", "", config)
        with pytest.raises(ValueError, match="over 0/1"):
            run_message("102", "100", config)


def test_message_round_trip():
    config = ProtocolConfig(n=16, lam=4, confidence_target=0.99, seed=21)
    outcomes, (bob_msg, sonai_msg) = run_message("101", "110", config)
    assert bob_msg == "101"
    assert sonai_msg == "110"
    assert len(outcomes) == 3
    # fresh codebook per block
    books = {id(o.codebook) for o in outcomes}
    assert len(books) == 3


def test_noiseless_messages_always_arrive_intact():
    for seed in range(40, 45):
        config = ProtocolConfig(n=16, lam=4, confidence_target=0.99, seed=seed)
        _, decoded = run_message("10110100", "01001011", config)
        assert decoded == ("10110100", "01001011")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([(0, 0), (1, 1), (0, 1), (1, 0)]))
def test_session_decodes_are_never_wrong_noiseless(seed, bits):
    config = small_config(seed=seed)
    outcome = run_session(config, bits, cb=REF)
    terminal = outcome.terminal
    assert terminal.status in (DecodeStatus.DECODED, DecodeStatus.UNDECIDED)
    if terminal.status is DecodeStatus.DECODED:
        assert (terminal.bob_bit, terminal.sonai_bit) == bits


@st.composite
def rank_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    truth = tuple(draw(st.permutations(range(1, n + 1))))
    cand = tuple(draw(st.permutations(range(1, n + 1))))
    party = draw(st.sampled_from([Party.BOB, Party.SONAI]))
    # None: never checked; True/False: checked, and passed or failed
    verdicts = draw(st.lists(st.sampled_from([None, True, False]), min_size=n, max_size=n))
    return truth, cand, party, verdicts


@settings(max_examples=200, deadline=None)
@given(rank_cases(), st.integers(min_value=0, max_value=2**31 - 1))
def test_survival_rank_matches_constraint_graph_oracle(case, seed):
    truth_sj, cand_sj, party, verdicts = case
    n = len(truth_sj)
    truth, cand = make_entry((0, 0), truth_sj), make_entry((1, 1), cand_sj)
    cb = Codebook(n=n, lam=1, entries=(truth, cand))
    config = ProtocolConfig(n=n, lam=1, delta=0.49, seed=seed)
    side = 0 if party is Party.BOB else 1
    own_row = alice_prepare([seed], 0.0, [(0, 0)], cb)[0][side]
    receiver = Receiver(party, cb, own_row, config)
    own_partner = cand.partner_arrays[1 - side]  # counterpart position -> own position
    # reveal counterpart values that give the candidate the drawn verdicts
    for q in range(n):
        own_pos = own_partner[q]
        verdict = verdicts[own_pos]
        if verdict is not None:
            own = int(own_row[own_pos])
            receiver.observe_reveal(q + 1, -own if verdict else own)
    # the kernel reports the verdicts in bob's positions; the candidate's
    # partner map carries sonai's own positions there
    done, passed = protocol._fold_checks(cb, receiver.table)
    to_bob = range(n) if party is Party.BOB else cand.partner_arrays[1]
    assert [bool(done[1, k]) for k in to_bob] == [v is not None for v in verdicts]
    assert [bool(passed[1, k]) for k in to_bob] == [v is True for v in verdicts]
    passed_own = {k for k, v in enumerate(verdicts) if v}
    rank = passed_check_rank(truth_sj, cand_sj, party.value, passed_own)
    assert receiver.survival_log2((1, 1), (0, 0)) == -rank
    assert receiver.survival_log2((0, 0), (0, 0)) == 0
    # with every check passed, the rank is the effective distance
    full = Receiver(party, cb, own_row, config)
    reveal_all(full, [-own_row[own_partner[q]] for q in range(n)])
    assert kernel_tallies(full)[1][1] == 0
    assert full.survival_log2((1, 1), (0, 0)) == -effective_distance(cand, truth)
