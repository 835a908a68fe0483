"""Independent brute-force model used to pin the library's numbers.

Everything here is derived straight from first principles: a session over n
anti-correlated pairs is one sign vector in {+1,-1}^n, the sender-side
ordering is the identity, and the counterpart ordering is given by a label
sequence. No code from the package is imported, so an agreement between
these numbers and the library is two derivations meeting, not one
derivation checked against itself.
"""
from __future__ import annotations

import json
import math
from itertools import product
from math import comb


def outcome_tables(truth_sj: tuple[int, ...], signs: tuple[int, ...]):
    """Bob and Sonai outcome lists for one sign assignment under the truth
    sequence. Bob position k holds pair label k+1 with orientation signs[k];
    Sonai position q holds pair label truth_sj[q] with the opposite sign."""
    bob = list(signs)
    sonai = [-signs[label - 1] for label in truth_sj]
    return bob, sonai


def claimed_pairs(cand_sj: tuple[int, ...]) -> list[tuple[int, int]]:
    """(bob position, sonai position) pairs the candidate sequence asserts,
    both 0-based."""
    position_of = {label: q for q, label in enumerate(cand_sj)}
    return [(k, position_of[k + 1]) for k in range(len(cand_sj))]


def candidate_passes(bob, sonai, pairs) -> bool:
    return all(bob[k] != sonai[q] for k, q in pairs)


def survival_count(truth_sj: tuple[int, ...], cand_sj: tuple[int, ...]) -> int:
    """Number of the 2^n sign assignments for which the candidate sequence
    passes every anti-correlation check on a full transcript."""
    n = len(truth_sj)
    pairs = claimed_pairs(cand_sj)
    count = 0
    for signs in product((1, -1), repeat=n):
        bob, sonai = outcome_tables(truth_sj, signs)
        if candidate_passes(bob, sonai, pairs):
            count += 1
    return count


def unique_decode_count(truth_sj: tuple[int, ...], wrong_sjs: list[tuple[int, ...]]) -> int:
    """Number of sign assignments under which no wrong sequence survives the
    full transcript, i.e. the receiver is left with the truth alone."""
    n = len(truth_sj)
    wrong_pairs = [claimed_pairs(sj) for sj in wrong_sjs]
    count = 0
    for signs in product((1, -1), repeat=n):
        bob, sonai = outcome_tables(truth_sj, signs)
        if not any(candidate_passes(bob, sonai, pairs) for pairs in wrong_pairs):
            count += 1
    return count


def passed_check_rank(
    truth_sj: tuple[int, ...], cand_sj: tuple[int, ...], party: str, passed_positions
) -> int:
    """Independent constraints a wrong candidate satisfied, were the truth
    sequence the true entry: n minus log2 of the number of sign assignments
    under which every listed check passes. ``party`` ("bob" or "sonai") owns
    the checks; ``passed_positions`` are its own 0-based positions."""
    n = len(truth_sj)
    own = 0 if party == "bob" else 1
    listed = [pair for pair in claimed_pairs(cand_sj) if pair[own] in passed_positions]
    count = sum(
        1 for signs in product((1, -1), repeat=n)
        if candidate_passes(*outcome_tables(truth_sj, signs), listed)
    )
    assert count & (count - 1) == 0  # equality constraints: a power of two
    return n - (count.bit_length() - 1)


def entry_posterior(sjs, eps: float, party: str, own, revealed: dict) -> list[float]:
    """Posterior of each sequence in ``sjs`` under a uniform prior, given a
    receiver's own delivered outcomes ``own`` and the counterpart's delivered
    outcomes at the revealed positions (``revealed``: position -> value).
    Every delivered outcome is the ideal one flipped independently with
    probability ``eps``. The sum runs over sequence x orientation x flips;
    for one ideal table exactly one flip pattern of the observed outcomes
    matches, and the unobserved outcomes' flips sum to one, so the flip sum
    is the product over the observed outcomes."""
    n = len(sjs[0])
    weights = []
    for sj in sjs:
        total = 0.0
        for signs in product((1, -1), repeat=n):
            bob, sonai = outcome_tables(sj, signs)
            mine, theirs = (bob, sonai) if party == "bob" else (sonai, bob)
            observed = [(mine[k], own[k]) for k in range(n)]
            observed += [(theirs[q], value) for q, value in revealed.items()]
            weight = 1.0
            for ideal, delivered in observed:
                weight *= (1.0 - eps) if ideal == delivered else eps
            total += weight / 2**n
        weights.append(total)
    return [w / sum(weights) for w in weights]


def cycle_lengths(truth_sj: tuple[int, ...], cand_sj: tuple[int, ...]) -> list[int]:
    """Lengths of the cycles of pi on bob's positions: the candidate's check
    on bob position k passes, noiseless, exactly when orientations k and
    pi(k) agree, pi(k) being the label the truth puts at the sonai position
    the candidate pairs with k."""
    pi = {k: truth_sj[q] - 1 for k, q in claimed_pairs(cand_sj)}
    seen, lengths = set(), []
    for start in range(len(truth_sj)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k, length = pi[k], length + 1
        if length:
            lengths.append(length)
    return lengths


def noisy_violation_law(lengths: list[int], eps: float) -> list[float]:
    """Chance of each violation count v = 0..n of a wrong candidate over a
    complete exchange, given the cycle lengths of its pi and the flip
    chance ``eps`` of each delivered outcome. Before noise, a cycle of
    length L has L - 1 free orientations, so its violated checks are
    uniform over the even-size subsets of its L checks. Each check reads
    one outcome of each receiver that no other check reads, so noise turns
    each check over on its own with q = 2 eps (1 - eps). Cycles are
    independent, so the counts convolve."""
    q = 2.0 * eps * (1.0 - eps)
    law = [1.0]
    for length in lengths:
        cycle = [0.0] * (length + 1)
        for w in range(0, length + 1, 2):  # violated before noise
            weight = comb(length, w) / 2 ** (length - 1)
            for kept in range(w + 1):  # violated checks left alone
                for turned in range(length - w + 1):  # passed checks turned over
                    cycle[kept + turned] += (
                        weight
                        * comb(w, kept) * (1.0 - q) ** kept * q ** (w - kept)
                        * comb(length - w, turned) * q ** turned * (1.0 - q) ** (length - w - turned)
                    )
        law = [
            sum(law[a] * cycle[v - a] for a in range(len(law)) if 0 <= v - a <= length)
            for v in range(len(law) + length)
        ]
    return law


def noisy_survival(lengths: list[int], eps: float, delta: float) -> float:
    """Chance a wrong candidate survives a complete exchange: at most
    ``delta * n`` of its n checks violated."""
    n = sum(lengths)
    return sum(p for v, p in enumerate(noisy_violation_law(lengths, eps)) if v <= delta * n)


def true_entry_elimination(n: int, eps: float, delta: float) -> float:
    """Chance the true entry is eliminated over a complete exchange of n
    checks: each check reads one outcome of each receiver, each flipped
    with chance ``eps`` on its own, so it is violated with q = 2 eps (1 - eps)
    independently, and the entry dies when its violations V ~ Binomial(n, q)
    break ``v <= delta * n``. The sum is exact up to float rounding."""
    q = 2.0 * eps * (1.0 - eps)
    return sum(comb(n, v) * q**v * (1.0 - q) ** (n - v) for v in range(n + 1)
               if not v <= delta * n)


def noisy_violation_enumerated(truth_sj: tuple[int, ...], cand_sj: tuple[int, ...],
                               eps: float) -> list[float]:
    """``noisy_violation_law`` by brute force: every orientation and every
    flip pattern of the 2n delivered outcomes, weighted by its chance."""
    n = len(truth_sj)
    pairs = claimed_pairs(cand_sj)
    law = [0.0] * (n + 1)
    for signs in product((1, -1), repeat=n):
        bob, sonai = outcome_tables(truth_sj, signs)
        for flips in product((1, -1), repeat=2 * n):
            flipped = flips.count(-1)
            weight = eps ** flipped * (1.0 - eps) ** (2 * n - flipped) / 2**n
            seen_bob = [v * f for v, f in zip(bob, flips[:n])]
            seen_sonai = [v * f for v, f in zip(sonai, flips[n:])]
            law[sum(seen_bob[k] == seen_sonai[q] for k, q in pairs)] += weight
    return law


BIT_PAIRS = ((0, 0), (1, 1), (0, 1), (1, 0))  # the order decoding reads entries in


def merged_ties(truth_sj: tuple[int, ...], cand_sj: tuple[int, ...], passed_positions) -> int:
    """Independent constraints a wrong candidate's passed checks put on the
    orientations, were the truth sequence the true entry, by union-find:
    the check on bob position k ties orientations k and pi(k), and a tie
    counts when it joins two groups not yet joined."""
    pi = {k: truth_sj[q] - 1 for k, q in claimed_pairs(cand_sj)}
    parent = list(range(len(truth_sj)))

    def root(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    merged = 0
    for k in sorted(passed_positions):
        a, b = root(k), root(pi[k])
        if a != b:
            parent[a] = b
            merged += 1
    return merged


def decode_view(entries, bob, sonai, noise: float, delta: float, target: float):
    """One view decoded trial by trial, in plain Python: ``entries`` lists
    (bits, s_j) in the book's order and ``bob`` and ``sonai`` hold the known
    values, 0 where private. Returns ((status, bob_bit, sonai_bit,
    confidence, abort_reason), alive per entry in the book's order).

    Each entry's check on bob position k pairs it with the sonai position
    its sequence gives label k + 1: passed when the two known values differ,
    violated when they agree. An entry stays alive while at most a
    ``delta`` fraction of its checks are violated. Noiseless, the lead (the
    first live entry in bit-pair order) is the reference, and the
    confidence is one less the summed 2^-rank of the other live entries;
    noisy, it is the lead's normalized weight q^v (1 - q)^(k - v), the lead
    being the live entry with the fewest violations."""
    checks, violations, passed = [], [], []
    for _, sj in entries:
        products = [(k, bob[k] * sonai[q]) for k, q in claimed_pairs(sj)]
        checks.append(sum(1 for _, p in products if p))
        violations.append(sum(1 for _, p in products if p > 0))
        passed.append({k for k, p in products if p < 0})
    alive = [v <= delta * k for k, v in zip(checks, violations)]
    order = sorted(range(len(entries)), key=lambda i: BIT_PAIRS.index(entries[i][0]))
    live = [i for i in order if alive[i]]
    if not live:
        return ("abort", None, None, 0.0, "no_consistent_entry"), alive
    if not noise:
        lead = live[0]
        rest = 0.0
        for i in live[1:]:
            rest += 2.0 ** -merged_ties(entries[lead][1], entries[i][1], passed[i])
        confidence = max(0.0, 1.0 - rest)
    else:
        q = 2.0 * noise * (1.0 - noise)
        loglik = [v * math.log(q) + (k - v) * math.log1p(-q) if k else 0.0
                  for k, v in zip(checks, violations)]
        lead = min(live, key=violations.__getitem__)
        peak = max(loglik)
        total = 0.0
        for i in order:
            total += math.exp(loglik[i] - peak)
        confidence = math.exp(loglik[lead] - peak) / total
    if len(live) == 1 and confidence >= target:
        return ("decoded", *entries[lead][0], confidence, None), alive
    return ("undecided", None, None, confidence, None), alive


def read_record_per_line(text: str, n: int):
    """A public record over ``n`` pairs read one line at a time, each line
    as ``json.loads`` reads it, in lines as ``str.splitlines`` cuts them:
    (sides, positions, outcomes, terminal), the reveals as columns in round
    order (side 0 bob, 1 sonai; outcome +1 or -1) and the terminal line's
    object or None; or the text of the error for the first line that is
    malformed or breaks a rule. A reveal's rules, in the order they are
    tested: integer round and position and an outcome of + or -; a receiver
    revealing; no terminal line before it; rounds rising by one from 1;
    positions in 1..n; no (party, position) twice. The terminal line's own
    fields are taken as read: their rules are the terminal's, not the
    record's."""
    sides, positions, outcomes, seen, terminal = [], [], [], set(), None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return f"line {lineno}: not valid JSON: {exc}"
        try:
            if "status" in obj:
                if terminal is not None:
                    return f"line {lineno}: transcript already closed"
                terminal = obj
                continue
            outcome = {"+": 1, "-": -1}.get(obj["outcome"], 0)
            round_, party, position = obj["round"], obj["party"], obj["position"]
            if type(round_) is not int or type(position) is not int or outcome not in (1, -1):
                return (f"line {lineno}: malformed record: round {round_!r} and position "
                        f"{position!r} must be integers, the outcome + or -")
            side = {"bob": 0, "sonai": 1}.get(party)
            if side is None and party != "alice":
                raise ValueError(f"{party!r} is not a valid Party")
        except (KeyError, ValueError, TypeError) as exc:
            return f"line {lineno}: malformed record: {exc}"
        if side is None:
            return f"line {lineno}: alice is not a receiver and cannot reveal"
        if terminal is not None:
            return f"line {lineno}: transcript already closed by a terminal record"
        if round_ != len(sides) + 1:
            return (f"line {lineno}: round numbers must increase by one: expected "
                    f"{len(sides) + 1}, got {round_}")
        if not 1 <= position <= n:
            return f"line {lineno}: reveal position out of range: {position}"
        if (side, position) in seen:
            return f"line {lineno}: duplicate reveal of {party} position {position}"
        seen.add((side, position))
        sides.append(side)
        positions.append(position)
        outcomes.append(outcome)
    return sides, positions, outcomes, terminal
