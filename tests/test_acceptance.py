"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line with the measured numbers.
Expected values marked as frozen were computed by the brute-force model in
oracle.py (2^n enumeration) before being written down here.
"""

import itertools
import time
from fractions import Fraction

import pytest

from entpost.codebook import (
    REFERENCE_RAW_FOURTH,
    Codebook,
    codebook_from_document,
    codebook_to_document,
    effective_distance,
    make_entry,
    reference_codebook,
    validate_codebook,
)
from entpost.montecarlo import ExperimentSpec, run_experiment
from entpost.netsim import WithholdAfter, fairness_gap
from entpost.protocol import (
    DecodeStatus,
    Party,
    ProtocolConfig,
    Receiver,
    decode_transcript,
    prepared_block_from_signs,
    run_session,
)
from entpost.rng import KEY_TRIAL, derive_seed, substream

from oracle import survival_count, unique_decode_count

REF = reference_codebook()
BITS_CASES = [(0, 0), (1, 1), (0, 1), (1, 0)]

# fraction of sign assignments that eliminate every wrong entry, per truth,
# frozen from oracle.unique_decode_count over all 2^8 assignments
UNIQUE_DECODE_P = {
    (0, 0): Fraction(240, 256),
    (1, 1): Fraction(234, 256),
    (0, 1): Fraction(252, 256),
    (1, 0): Fraction(246, 256),
}


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_walkthrough_sessions_match_enumeration():
    """Honest sessions on the 8-pair book: decoded bits are never wrong, the
    truth stays alive, and per-case decode rates sit inside 3 sigma of the
    enumerated probability of a unique survivor."""
    # the frozen table itself must match a fresh enumeration
    for bits in BITS_CASES:
        wrong = [e.s_j for e in REF.entries if e.bits != bits]
        truth_sj = REF.entry_for_bits(*bits).s_j
        assert Fraction(unique_decode_count(truth_sj, wrong), 256) == UNIQUE_DECODE_P[bits]

    sessions = 100
    failures = []
    rates = {}
    for bits in BITS_CASES:
        decoded = 0
        for i in range(sessions):
            seed = derive_seed(1000 + bits[0] * 2 + bits[1], KEY_TRIAL, i)
            config = ProtocolConfig(n=8, lam=4, seed=seed)
            outcome = run_session(config, bits, cb=REF)
            terminal = outcome.terminal
            if terminal.status is DecodeStatus.ABORT:
                failures.append(f"{bits} session {i} aborted")
            if terminal.status is DecodeStatus.DECODED:
                decoded += 1
                if (terminal.bob_bit, terminal.sonai_bit) != bits:
                    failures.append(f"{bits} session {i} decoded wrongly")
            truth = [entry.bits for entry in REF.entries].index(bits)
            for party in (Party.BOB, Party.SONAI):
                if not outcome.receivers[party].alive[truth]:
                    failures.append(f"{bits} session {i} eliminated the truth")
        p = float(UNIQUE_DECODE_P[bits])
        sigma = (p * (1 - p) / sessions) ** 0.5
        rate = decoded / sessions
        rates[bits] = rate
        if decoded == 0:
            failures.append(f"{bits}: nothing decoded")
        if abs(rate - p) > 3 * sigma:
            failures.append(f"{bits}: rate {rate:.3f} vs expected {p:.3f} (3 sigma {3*sigma:.3f})")
    detail = ", ".join(
        f"{b}: {rates[b]:.2f}/{float(UNIQUE_DECODE_P[b]):.3f}" for b in BITS_CASES
    )
    report("A1 walkthrough", not failures, detail + ("; " + "; ".join(failures) if failures else ""))


def test_a2_survival_is_exactly_two_to_minus_distance():
    """Wrong-entry survival through a full noiseless transcript equals
    2^-d exactly, for every ordering pair: exhaustively for n <= 4, and on
    samples up to n = 8, checked with the full receiver machinery."""
    t0 = time.perf_counter()
    checked = 0

    def machine_survival_count(n, truth_sj, cand_sj) -> int:
        truth = make_entry((0, 0), truth_sj)
        cand = make_entry((1, 1), cand_sj)
        cb = Codebook(n=n, lam=1, entries=(truth, cand))
        config = ProtocolConfig(n=n, lam=1, seed=0)
        alive = 0
        for signs in itertools.product((1, -1), repeat=n):
            table = prepared_block_from_signs(truth, signs)
            receiver = Receiver(Party.BOB, cb, table[0], config)
            for q, value in enumerate(table[1].tolist()):
                receiver.observe_reveal(q + 1, value)
            if receiver.alive[1]:
                alive += 1
        return alive

    mismatches = []
    for n in (2, 3, 4):
        for truth_sj in itertools.permutations(range(1, n + 1)):
            for cand_sj in itertools.permutations(range(1, n + 1)):
                d = effective_distance(make_entry((0, 0), truth_sj), make_entry((1, 1), cand_sj))
                expected = 2 ** (n - d)
                if survival_count(truth_sj, cand_sj) != expected:
                    mismatches.append(("oracle", n, truth_sj, cand_sj))
                if machine_survival_count(n, truth_sj, cand_sj) != expected:
                    mismatches.append(("machine", n, truth_sj, cand_sj))
                checked += 1

    rng = substream(2024, 99)
    for n in (5, 6, 7, 8):
        for _ in range(12):
            truth_sj = tuple(int(x) + 1 for x in rng.permutation(n))
            cand_sj = tuple(int(x) + 1 for x in rng.permutation(n))
            d = effective_distance(make_entry((0, 0), truth_sj), make_entry((1, 1), cand_sj))
            expected = 2 ** (n - d)
            if survival_count(truth_sj, cand_sj) != expected:
                mismatches.append(("oracle", n, truth_sj, cand_sj))
            if machine_survival_count(n, truth_sj, cand_sj) != expected:
                mismatches.append(("machine", n, truth_sj, cand_sj))
            checked += 1

    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(
        "A2 exact survival",
        ok,
        f"{checked} ordering pairs, exhaustive n<=4 plus samples to n=8, "
        f"{elapsed:.1f}s" + (f"; mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_a3_soundness_rate_at_one_hundred_thousand_trials():
    """Survival of the distance-4 wrong entry across 100000 sessions lands
    inside 0.0625 +/- 0.0023 and finishes within the half-minute budget."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        mode="soundness", n=8, lam=4, seed=20240, trials=100_000,
        bits=(0, 0), codebook="reference",
    )
    _, rep = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    rate = rep.survival_rates["11"]
    ok = abs(rate - 0.0625) <= 0.0023 and elapsed < 30.0
    report(
        "A3 soundness",
        ok,
        f"survival {rate:.5f} (target 0.0625 +/- 0.0023), {elapsed:.1f}s / 30s budget",
    )


def test_a4_completeness_noiseless():
    """10000 honest noiseless sessions at the default size all decode the
    sent double bit, inside a minute."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(mode="honest", n=64, lam=16, seed=777, trials=10_000)
    _, rep = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.decode_success_rate == 1.0
        and rep.correct_rate == 1.0
        and rep.status_counts == {"decoded": 10_000}
        and elapsed < 60.0
    )
    report(
        "A4 completeness",
        ok,
        f"decode {rep.decode_success_rate:.4f}, correct {rep.correct_rate:.4f}, {elapsed:.1f}s / 60s budget",
    )


def test_a5_noise_margin():
    """With 5% flips and a quarter tolerance at n=256, at least 99% of 10000
    sessions decode correctly, inside five minutes."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        mode="honest", n=256, lam=16, seed=4242, trials=10_000,
        noise=0.05, delta=0.25,
    )
    _, rep = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    ok = rep.correct_rate >= 0.99 and elapsed < 300.0
    report(
        "A5 noise margin",
        ok,
        f"correct {rep.correct_rate:.4f} (floor 0.99), decode {rep.decode_success_rate:.4f}, "
        f"{elapsed:.1f}s / 300s budget",
    )


def test_a6_fairness_under_withholding():
    """Honest runs alternate with a lead of exactly one reveal. When either
    receiver goes silent after k reveals (2 <= k <= n-2), the session ends in
    a timeout abort, the honest side never got more than one reveal ahead,
    and for every entry still alive in both private views the two sides hold
    survival evidence within one bit of each other."""
    t0 = time.perf_counter()
    n = 64
    config_base = dict(n=n, lam=16)
    honest_ok = True
    for seed in range(20):
        outcome = run_session(ProtocolConfig(seed=seed, **config_base), (1, 0))
        if fairness_gap(outcome.transcript) != 1:
            honest_ok = False

    sessions = 1000
    failures = []
    max_evidence_diff = 0
    cb = ExperimentSpec(n=n, lam=16, seed=808, trials=1).shared_codebook()
    for i in range(sessions):
        k = 2 + i % (n - 3)  # sweeps 2..n-2
        cheater = Party.SONAI if i % 2 == 0 else Party.BOB
        bits = BITS_CASES[i % 4]
        config = ProtocolConfig(seed=derive_seed(808, KEY_TRIAL, i), **config_base)
        outcome = run_session(
            config, bits, strategies={cheater: WithholdAfter(k)}, cb=cb
        )
        if outcome.terminal.status is not DecodeStatus.ABORT:
            failures.append(f"session {i}: no abort")
            continue
        if outcome.terminal.abort_reason.value != "timeout":
            failures.append(f"session {i}: abort {outcome.terminal.abort_reason.value}")
        if fairness_gap(outcome.transcript) > 1:
            failures.append(f"session {i}: reveal lead {fairness_gap(outcome.transcript)}")
        bob, sonai = outcome.receivers[Party.BOB], outcome.receivers[Party.SONAI]
        for entry, alive_bob, alive_sonai in zip(cb.entries, bob.alive, sonai.alive):
            if not (alive_bob and alive_sonai):
                continue
            diff = abs(
                bob.survival_log2(entry.bits, bits) - sonai.survival_log2(entry.bits, bits)
            )
            max_evidence_diff = max(max_evidence_diff, diff)
            if diff > 1:
                failures.append(
                    f"session {i} k={k}: evidence gap {diff} bits on {entry.bits}"
                )
    elapsed = time.perf_counter() - t0
    ok = honest_ok and not failures
    report(
        "A6 fairness",
        ok,
        f"honest lead 1, {sessions} withhold sessions k in [2, {n - 2}], "
        f"max evidence gap {max_evidence_diff} bit(s), {elapsed:.1f}s"
        + ("" if ok else f"; {failures[:3]}"),
    )


def test_a7_determinism_and_replay():
    """Same seed, same bytes; the public transcript alone reproduces the
    terminal decode bit for bit; worker count never shows in a report."""
    problems = []
    for seed, bits, n, lam in [(5, (1, 0), 8, 4), (6, (0, 1), 8, 4), (7, (1, 1), 64, 16)]:
        cb = REF if n == 8 else None
        config = ProtocolConfig(n=n, lam=lam, seed=seed)
        a = run_session(config, bits, cb=cb)
        b = run_session(config, bits, cb=cb)
        if a.transcript.to_jsonl() != b.transcript.to_jsonl():
            problems.append(f"seed {seed}: transcripts differ")
        replayed = decode_transcript(a.codebook, a.transcript, config)
        terminal = a.terminal
        exact = (
            replayed.status == terminal.status
            and replayed.bob_bit == terminal.bob_bit
            and replayed.sonai_bit == terminal.sonai_bit
            and replayed.confidence == terminal.confidence
        )
        if not exact:
            problems.append(f"seed {seed}: replay drifted")

    spec = ExperimentSpec(
        mode="soundness", n=8, lam=4, seed=55, trials=400, bits=(0, 0), codebook="reference"
    )
    rows1, rep1 = run_experiment(spec, workers=1)
    rows4, rep4 = run_experiment(spec, workers=4)
    if rows1 != rows4 or rep1 != rep4:
        problems.append("worker count changed the results")
    report(
        "A7 determinism",
        not problems,
        "transcripts byte-identical, replay bit-exact, 1 vs 4 workers equal"
        + ("" if not problems else f"; {problems}"),
    )


def test_a8_defective_sequence_is_caught_and_repairable():
    """The validator names both defects in the known bad fourth ordering
    (repeated labels and absent labels); the repaired book is clean with the
    full distance floor."""
    doc = codebook_to_document(REF)
    doc["entries"] = [dict(e) for e in doc["entries"]]
    for entry in doc["entries"]:
        if entry["bits"] == [1, 0]:
            entry["s_j"] = list(REFERENCE_RAW_FOURTH)
    defective = codebook_from_document(doc, validate=False)
    defects = validate_codebook(defective)
    kinds = {d.kind for d in defects}
    found_both = "duplicate-label" in kinds and "missing-label" in kinds

    repaired = REF  # the built-in book carries the documented repair
    clean = validate_codebook(repaired) == []
    floor = min(repaired.pairwise_distances().values())
    ok = found_both and clean and floor == 4
    report(
        "A8 erratum",
        ok,
        f"defect kinds {sorted(kinds)}, repaired book clean={clean}, distance floor {floor}",
    )
