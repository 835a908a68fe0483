"""Three-party session logic: prepare, measure, reveal, decode.

The sender encodes one double bit by choosing a codebook entry; each
receiver then holds n predetermined z-outcomes whose anti-correlation
structure follows that entry's pairing. Receivers take turns publishing
single outcomes. Every published outcome lets the counterpart complete one
consistency check per codebook entry against its own private outcomes; an
entry whose violation fraction exceeds the tolerance is eliminated. A
receiver decodes once exactly one entry stays alive with enough residual
confidence, and aborts when none does.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterator, Sequence

import numpy as np

from . import rng as rng_mod
from .codebook import Codebook, CodebookEntry, generate_codebook, resolve_codebook
from .epr import flips, sample_blocks

__all__ = [
    "Party",
    "ProtocolConfig",
    "ProtocolViolationError",
    "Transcript",
    "Receiver",
    "DecodeStatus",
    "AbortReason",
    "DecodeResult",
    "SessionOutcome",
    "alice_prepare",
    "prepared_block_from_signs",
    "decode_block",
    "decode_transcript",
    "terminal_record",
    "run_session",
    "run_message",
]


class Party(str, Enum):
    ALICE = "alice"
    BOB = "bob"
    SONAI = "sonai"

    def counterpart(self) -> "Party":
        if self is Party.BOB:
            return Party.SONAI
        if self is Party.SONAI:
            return Party.BOB
        raise ValueError("only receivers have a counterpart")


class ProtocolViolationError(Exception):
    """A reveal that breaks the public rules (duplicate position, bad round)."""


class DecodeStatus(str, Enum):
    DECODED = "decoded"
    UNDECIDED = "undecided"
    ABORT = "abort"


class AbortReason(str, Enum):
    NO_CONSISTENT_ENTRY = "no_consistent_entry"
    TIMEOUT = "timeout"
    FAIRNESS_VIOLATION = "fairness_violation"


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters.

    noise is the independent flip probability eps of each delivered outcome.
    delta is the per-entry violation fraction tolerated before elimination.
    Keep it well below the midpoint between the honest check-violation rate
    2*eps*(1-eps) and the wrong-entry rate 1/2, otherwise the two outcome
    populations overlap. reveal_first names the receiver who opens.

    Pacing: the opener may lead what it has received by at most
    one_ahead_limit reveals, and a receiver stalled for timeout_ticks
    consecutive ticks aborts.
    """

    n: int = 64
    lam: int = 16
    noise: float = 0.0
    delta: float = 0.0
    confidence_target: float = 0.999
    reveal_first: Party = Party.BOB
    seed: int = 0
    one_ahead_limit: int = 1
    timeout_ticks: int = 16

    def __post_init__(self) -> None:
        # type before range: a float size fails later in numpy, a string range here
        for names, kinds, kind in (
            (("n", "lam", "seed", "one_ahead_limit", "timeout_ticks"), int, "an integer"),
            (("noise", "delta", "confidence_target"), (int, float), "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kinds):
                    raise ValueError(f"{name} must be {kind}, got {value!r}")
        # `or 0.0` turns -0.0 into 0.0, so reports never print "-0.0"
        object.__setattr__(self, "noise", float(self.noise) or 0.0)
        if not (0.0 <= self.noise <= 0.5):
            raise ValueError(f"flip probability must lie in [0, 0.5], got {self.noise}")
        if isinstance(self.reveal_first, str):
            object.__setattr__(self, "reveal_first", Party(self.reveal_first))
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.lam < 1:
            raise ValueError(f"lam must be at least 1, got {self.lam}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (0.0 <= self.delta < 0.5):
            raise ValueError(f"delta must lie in [0, 0.5), got {self.delta}")
        if not (0.0 < self.confidence_target < 1.0):
            raise ValueError(
                f"confidence target must lie in (0, 1), got {self.confidence_target}"
            )
        if self.reveal_first not in (Party.BOB, Party.SONAI):
            raise ValueError("reveal_first must be a receiver")
        if self.one_ahead_limit < 1:
            raise ValueError(f"one_ahead_limit must be at least 1, got {self.one_ahead_limit}")
        if self.timeout_ticks < 1:
            raise ValueError(f"timeout_ticks must be at least 1, got {self.timeout_ticks}")


def prepared_block_from_signs(entry: CodebookEntry, signs: Sequence[int]) -> np.ndarray:
    """The noiseless (..., 2, n) tables of sessions whose sender-side
    orientations are ``signs`` (one +/-1 per pair label, in label order, in
    a (..., n) block): bob's row, then sonai's, each in its own position
    order, so that table[0, k] == -table[1, map(k)] for the entry's pairing
    map at every position."""
    i_side = np.asarray(signs, dtype=np.int8)
    # bob's ordering is the sender's identity; sonai's position p holds label s_j[p]
    return np.stack((i_side, (-i_side).take(entry.partner_arrays[1], axis=-1)), axis=-2)


_NOISE_KEYS = (rng_mod.KEY_NOISE_BOB, rng_mod.KEY_NOISE_SONAI)


def alice_prepare(seeds: Sequence[int], noise: float, bits: Sequence[tuple[int, int]],
                  cb: Codebook) -> np.ndarray:
    """The (len(seeds), 2, n) tables of the sessions at ``seeds``: the entry
    for ``bits[i]`` arranges the block drawn from seed i's prepare
    substream, then each delivered outcome flips with probability ``noise``,
    each row drawing from its own receiver's noise substream. The prepare
    draw and each receiver's noise draw are one ``rng.substream_uint64s``
    call for the whole block. A noiseless table draws no noise."""
    words = rng_mod.substream_uint64s(seeds, (rng_mod.KEY_PREPARE,), -(-cb.n // 8))
    signs = sample_blocks(words, cb.n)
    tables = np.empty((len(signs), 2, cb.n), dtype=np.int8)
    for pair in set(bits):
        rows = [i for i, b in enumerate(bits) if b == pair]
        tables[rows] = prepared_block_from_signs(cb.entry_for_bits(*pair), signs[rows])
    if noise:
        for side, key in enumerate(_NOISE_KEYS):
            tables[:, side][flips(rng_mod.substream_uint64s(seeds, (key,), cb.n), noise)] *= -1
    return tables


@dataclass(frozen=True)
class DecodeResult:
    """A receiver's decode, a replay's, or a session's outcome, which is the
    terminal line of its transcript. It has one of three shapes: decoded
    (both bits, no abort reason), undecided (no bits, no reason) and abort
    (no bits, confidence 0, a reason)."""

    status: DecodeStatus
    bob_bit: int | None
    sonai_bit: int | None
    confidence: float
    abort_reason: AbortReason | None = None

    @classmethod
    def aborted(cls, reason: AbortReason) -> "DecodeResult":
        return cls(DecodeStatus.ABORT, None, None, 0.0, reason)

    def to_json_obj(self) -> dict:
        return {
            "status": self.status.value,
            "bob_bit": self.bob_bit,
            "sonai_bit": self.sonai_bit,
            "confidence": self.confidence,
            "abort_reason": self.abort_reason.value if self.abort_reason else None,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecodeResult":
        """Parse a terminal line, accepting only the three shapes."""
        for key in ("bob_bit", "sonai_bit"):
            bit = obj[key]
            if bit is not None and (type(bit) is not int or bit not in (0, 1)):  # bool too
                raise ProtocolViolationError(f"{key} must be 0, 1 or null, got {bit!r}")
        confidence = obj["confidence"]
        # compare before converting: float() overflows on huge integers
        if type(confidence) not in (int, float) or not 0 <= confidence <= 1:  # NaN fails too
            raise ProtocolViolationError(f"confidence must lie in [0, 1], got {confidence!r}")
        status = DecodeStatus(obj["status"])
        reason = None if obj["abort_reason"] is None else AbortReason(obj["abort_reason"])
        bits_set = [obj[key] is not None for key in ("bob_bit", "sonai_bit")]
        if status is DecodeStatus.DECODED:
            fits, shape = all(bits_set) and reason is None, "both bits and no abort reason"
        elif status is DecodeStatus.UNDECIDED:
            fits, shape = not any(bits_set) and reason is None, "no bits and no abort reason"
        else:
            fits = not any(bits_set) and confidence == 0 and reason is not None
            shape = "no bits, confidence 0 and an abort reason"
        if not fits:
            raise ProtocolViolationError(f"a {status.value} terminal line must have {shape}")
        return cls(status, obj["bob_bit"], obj["sonai_bit"], float(confidence), reason)


_RECEIVERS = (Party.BOB, Party.SONAI)
_SIDES = {party: side for side, party in enumerate(_RECEIVERS)}  # "bob" finds Party.BOB too
_OUTCOMES = {"+": 1, "-": -1}
_raw_decode = json.JSONDecoder().raw_decode  # json.loads without its checks around the document
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines cuts


def _stream_splitlines(fp: IO[str]) -> Iterator[str]:
    """The lines of the text stream ``fp`` as ``str.splitlines`` cuts its
    whole text, read 64 Ki characters at a time, or more while one line runs
    on, so a long line still reads in linear time: what is held grows with
    the longest line, not with the stream."""
    rest = ""  # an unfinished last line, which the next block extends
    while block := fp.read(max(1 << 16, len(rest))):
        text = rest + block
        lines = text.splitlines()
        if text[-1] == "\r":  # it may pair with a \n to come
            rest = lines.pop() + "\r"
        else:
            rest = "" if text[-1] in _BREAKS else lines.pop()
        yield from lines
    yield from rest.splitlines()


class Transcript:
    """Append-only public record of a session over ``n`` pairs: reveals
    plus a terminal line.

    The reveals are columns in round order: the revealer's side (0 bob, 1
    sonai), its 1-based position and the outcome (+1 or -1). Every reveal
    passes ``_admit``, the one site of the public rules, so a transcript
    holds at most 2n reveals."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.terminal: DecodeResult | None = None
        self._sides, self._positions, self._outcomes = [], [], []
        self._seen: set[int] = set()  # 2 * position + side of every reveal

    def __len__(self) -> int:
        """The number of reveals."""
        return len(self._sides)

    def _admit(self, round_, party, position, outcome: int) -> None:
        """Record one reveal if it keeps the rules: integer round and
        position, outcome +1 or -1, a receiver revealing, an open transcript,
        rounds rising by one, positions in 1..n, no (party, position) twice."""
        if type(round_) is not int or type(position) is not int or outcome not in (1, -1):
            raise ProtocolViolationError(f"malformed record: round {round_!r} and position "
                                         f"{position!r} must be integers, the outcome + or -")
        side = _SIDES.get(party)
        if side is None:  # Party() calls an unknown party malformed (ValueError)
            raise ProtocolViolationError(f"{Party(party).value} is not a receiver and cannot reveal")
        if self.terminal is not None:
            raise ProtocolViolationError("transcript already closed by a terminal record")
        if round_ != len(self._sides) + 1:
            raise ProtocolViolationError(f"round numbers must increase by one: expected "
                                         f"{len(self._sides) + 1}, got {round_}")
        if not 1 <= position <= self.n:
            raise ProtocolViolationError(f"reveal position out of range: {position}")
        if 2 * position + side in self._seen:
            raise ProtocolViolationError(
                f"duplicate reveal of {_RECEIVERS[side].value} position {position}")
        self._seen.add(2 * position + side)
        self._sides.append(side)
        self._positions.append(position)
        self._outcomes.append(outcome)

    def append(self, party: Party, position: int, outcome: int) -> None:
        """Record ``party``'s reveal of ``outcome`` (+1 or -1) at its 1-based
        ``position`` as the next round."""
        self._admit(len(self._sides) + 1, party, position, outcome)

    @property
    def sides(self) -> tuple[int, ...]:
        """Who made each reveal, in round order: 0 for bob, 1 for sonai."""
        return tuple(self._sides)

    def table(self) -> np.ndarray:
        """The (2, n) table of the values the record reveals: bob's row, then
        sonai's, with 0 where a value is still private."""
        table = np.zeros((2, self.n), dtype=np.int8)
        table[self._sides, np.array(self._positions, dtype=np.intp) - 1] = self._outcomes
        return table

    def close(self, terminal: DecodeResult) -> None:
        if self.terminal is not None:
            raise ProtocolViolationError("transcript already closed")
        self.terminal = terminal

    def to_jsonl(self, fp: IO[str] | None = None) -> str:
        columns = zip(self._sides, self._positions, self._outcomes)
        lines = [json.dumps({"round": round_, "party": _RECEIVERS[side].value, "position": position,
                             "outcome": "+" if outcome == 1 else "-"}, separators=(",", ":"))
                 for round_, (side, position, outcome) in enumerate(columns, start=1)]
        if self.terminal is not None:
            lines.append(json.dumps(self.terminal.to_json_obj(), separators=(",", ":")))
        text = "\n".join(lines) + ("\n" if lines else "")
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_jsonl(cls, fp: IO[str], n: int) -> "Transcript":
        """Read a recorded transcript over ``n`` pairs from the open text
        stream ``fp``; raises ProtocolViolationError naming the first
        malformed or rule-breaking line and reads no further, so at most the
        2n reveals and the terminal line of a valid record are held, with
        one block of the stream. Lines split and number as ``str.splitlines``
        splits the whole text; each is one JSON document, read exactly as
        ``json.loads`` reads it."""
        transcript = cls(n)
        for lineno, line in enumerate(_stream_splitlines(fp), start=1):
            try:
                obj, end = _raw_decode(line) if line[:1] == "{" else (None, -1)
                if end != len(line):  # blank, padded, trailing data or not a record
                    if not line.strip():
                        continue
                    obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
                raise ProtocolViolationError(f"line {lineno}: not valid JSON: {exc}") from exc
            try:
                if "status" in obj:
                    transcript.close(DecodeResult.from_json_obj(obj))
                else:
                    outcome = _OUTCOMES.get(obj["outcome"], 0)
                    transcript._admit(obj["round"], obj["party"], obj["position"], outcome)
            except ProtocolViolationError as exc:
                raise ProtocolViolationError(f"line {lineno}: {exc}") from exc
            except (KeyError, ValueError, TypeError) as exc:
                raise ProtocolViolationError(f"line {lineno}: malformed record: {exc}") from exc
        return transcript


def _fold_checks(cb: Codebook, table: np.ndarray):
    """The check kernel, shared by receivers, batches and replay. ``table``
    is a (..., 2, n) block of tables of known values: bob's row, then
    sonai's, each in its own position order, with 0 where a value is still
    private. For each entry, the check on bob's position k pairs it with
    sonai's partner position: the product of the two values is 0 while
    either is private, -1 when the check passes and +1 when it is violated.
    Returns done and passed, each (..., entries, n) in bob's positions, so
    reveal order does not matter."""
    product = table[..., 0, None, :] * table[..., 1, :].take(cb.partner_index, axis=-1)
    return product != 0, product < 0


def _survival_log2(passed: np.ndarray, cycles: tuple[np.ndarray, np.ndarray]) -> int:
    """log2 of the chance a wrong candidate would have passed the checks
    marked in ``passed`` (booleans over bob's positions), were the reference
    the true entry (noiseless only); ``cycles`` is the pair's
    ``Codebook.cycles``.

    A passed check on position k ties k and pi(k) to one orientation.
    The ties on a cycle of pi are independent coin flips until they close
    it, so a cycle of length L with m passed checks adds min(m, L - 1), and
    the rank is the passed checks less one per cycle they fill."""
    labels, excess = cycles
    hits = labels[passed]
    return int(np.count_nonzero(np.bincount(hits, minlength=len(excess)) > excess)) - len(hits)


class Receiver:
    """One receiver's view of the session: the (2, n) ``table`` holding its
    own row of outcomes and the counterpart's row as revealed so far (0
    while private), and ``arrivals``, the counterpart's 0-based positions
    in the order they arrived.

    Each counterpart reveal completes exactly one check per entry: the
    revealed outcome is compared with the own outcome at the entry's paired
    position, expecting opposite signs. Decoding folds the whole table, and
    ``first_decode`` folds it once for every prefix of the arrivals.
    """

    def __init__(self, party: Party, cb: Codebook, own_outcomes: np.ndarray, config: ProtocolConfig):
        if party not in _SIDES:
            raise ValueError("only receivers decode")
        self.side = _SIDES[party]  # the row of the table holding own outcomes
        self.party = party
        self.codebook = cb
        self.config = config
        self.table = np.zeros((2, cb.n), dtype=np.int8)
        self.table[self.side] = own_outcomes
        self._theirs = self.table[1 - self.side]  # a view: reveals write into the table
        self.arrivals: list[int] = []

    def observe_reveal(self, position: int, outcome: int) -> None:
        """Fill one counterpart value into the table and note its arrival. A
        value already filled in is a duplicate reveal."""
        q = position - 1
        if not 0 <= q < self.codebook.n:
            raise ProtocolViolationError(f"reveal position out of range: {position}")
        if outcome not in (1, -1):
            raise ProtocolViolationError(f"reveal outcome must be +1 or -1, got {outcome!r}")
        if self._theirs[q]:
            counterpart = self.party.counterpart().value
            raise ProtocolViolationError(f"duplicate reveal of {counterpart} position {position}")
        self._theirs[q] = outcome
        self.arrivals.append(q)

    @property
    def alive(self) -> list[bool]:
        """Per entry, in codebook order: whether the current view keeps it alive."""
        return decode_block(self.codebook, self.config, self.table[None])[1][0]

    # -- decoding ----------------------------------------------------------

    def survival_log2(self, bits: tuple[int, int], reference_bits: tuple[int, int]) -> int:
        """log2 of the chance the entry for ``bits`` would have passed its
        completed checks were the entry for ``reference_bits`` the true one.
        Exact only for noiseless sessions, so noisy ones raise."""
        if self.config.noise:
            raise ValueError("exact survival rank applies only to noiseless sessions")
        order = [e.bits for e in self.codebook.entries]
        i, j = order.index(tuple(bits)), order.index(tuple(reference_bits))
        _, passed = _fold_checks(self.codebook, self.table)
        return _survival_log2(passed[i], self.codebook.cycles(i, j))

    def decode(self) -> "DecodeResult":
        return decode_block(self.codebook, self.config, self.table[None])[0][0]

    def first_decode(self, counts: Sequence[int]) -> "tuple[int, DecodeResult] | None":
        """``(c, result)`` for the first of the rising arrival ``counts`` c
        whose view, cut back to its first c arrivals, decodes; None if none
        does. One fold serves every prefix: each check is stamped with the
        arrival that completed it, and after c arrivals each entry has c."""
        cb, n, entries = self.codebook, self.codebook.n, len(self.codebook.entries)
        done, passed = _fold_checks(cb, self.table)
        order = np.full(n, n)
        order[self.arrivals] = np.arange(len(self.arrivals))
        step = order.take(cb.partner_index) if self.side == 0 else order
        # bin e * (n + 1) + c counts entry e's violations the c-th arrival completed
        bins = (np.arange(entries)[:, None] * (n + 1) + step + 1)[done & ~passed]
        violations = np.bincount(bins, minlength=entries * (n + 1)).reshape(entries, n + 1).cumsum(1)
        counts = np.asarray(counts, dtype=np.intp)
        alive = _alive(counts, violations[:, counts], self.config.delta)  # (entries, counts)
        lone = np.count_nonzero(alive, axis=0) == 1
        for j, c in zip(np.flatnonzero(lone).tolist(), counts[lone].tolist()):
            result = _decode_candidates(cb, [c] * entries, violations[:, c].tolist(),
                                        alive[:, j].tolist(), passed & (step < c), self.config)
            if result.status is DecodeStatus.DECODED:
                return c, result
        return None


def _alive(checks: np.ndarray, violations: np.ndarray, delta: float) -> np.ndarray:
    """The one elimination rule: an entry stays alive while at most a
    ``delta`` fraction of its completed checks are violated."""
    return violations <= delta * checks


def _decode_candidates(cb: Codebook, checks: Sequence[int], violations: Sequence[int],
                       kept: Sequence[bool], passed: np.ndarray, config: ProtocolConfig) -> DecodeResult:
    """The one decode rule, shared by private receivers, transcript replays
    and batches. It takes per-entry values in codebook order: ``checks``
    completed, the ``violations`` among them and whether ``_alive`` ``kept``
    the entry. ``passed[i]``, entry i's passed checks over bob's positions,
    is read only for a noiseless survival rank. It reads the entries in
    ``BIT_PAIR_ORDER``, so the order a book lists them in never matters."""
    order = cb.bit_pair_order
    alive = [i for i in order if kept[i]]
    if not alive:
        return DecodeResult.aborted(AbortReason.NO_CONSISTENT_ENTRY)
    if not config.noise:
        lead = alive[0]
        ranks = (_survival_log2(passed[i], cb.cycles(i, lead)) for i in alive[1:])
        confidence = max(0.0, 1.0 - sum(2.0 ** rank for rank in ranks))
    else:
        # Given the entry, each completed check pairs two outcomes no other
        # check touches and is violated with probability q = 2*eps*(1-eps),
        # independently. A receiver has completed the same k checks for
        # every entry, so the normalized weight q^v (1-q)^(k-v) is the exact
        # posterior of each entry under a uniform prior, after any prefix. A
        # truncated replay completes different counts per entry, and there
        # the weight is a score, not that posterior.
        eps = config.noise
        q = 2.0 * eps * (1.0 - eps)
        loglik = [
            v * math.log(q) + (k - v) * math.log1p(-q) if k else 0.0
            for k, v in zip(checks, violations)
        ]
        lead = min(alive, key=violations.__getitem__)  # ties go to the first in order
        peak = max(loglik)
        total = sum(math.exp(loglik[i] - peak) for i in order)
        confidence = math.exp(loglik[lead] - peak) / total
    if len(alive) == 1 and confidence >= config.confidence_target:
        bob_bit, sonai_bit = cb.entries[lead].bits
        return DecodeResult(DecodeStatus.DECODED, bob_bit, sonai_bit, confidence)
    return DecodeResult(DecodeStatus.UNDECIDED, None, None, confidence)


def decode_block(cb: Codebook, config: ProtocolConfig,
                 tables: np.ndarray) -> tuple[list[DecodeResult], list[list[bool]]]:
    """Fold and decode a (trials, 2, n) block of tables. Returns each
    trial's decode result and which entries stayed alive, in codebook
    order. Both receivers of a complete exchange hold the same table, so one
    result serves both."""
    done, passed = _fold_checks(cb, tables)
    checks = done.sum(axis=-1)
    violations = checks - passed.sum(axis=-1)
    alive = _alive(checks, violations, config.delta).tolist()
    results = [_decode_candidates(cb, k, v, kept, passed[t], config)
               for t, (k, v, kept) in enumerate(zip(checks.tolist(), violations.tolist(), alive))]
    return results, alive


def decode_transcript(cb: Codebook, transcript: Transcript, config: ProtocolConfig) -> DecodeResult:
    """Decode from the public record alone. A complete transcript reveals
    the table both receivers end with, so replay reaches their end state; a
    truncated one yields a partial, usually undecided, view."""
    if transcript.n != cb.n:
        raise ValueError(f"transcript is over n={transcript.n}, the codebook over n={cb.n}")
    return decode_block(cb, config, transcript.table()[None])[0][0]


def terminal_record(
    res_bob: DecodeResult,
    res_sonai: DecodeResult,
    transport_abort: AbortReason | None = None,
) -> DecodeResult:
    """Session outcome from both receivers' results. A transport abort wins,
    then the first decode abort in act order (bob, then sonai); otherwise the
    session decodes only when both receivers decoded the same bits."""
    reason = transport_abort
    if reason is None:
        reason = next(
            (r.abort_reason for r in (res_bob, res_sonai) if r.status is DecodeStatus.ABORT), None
        )
    if reason is not None:
        return DecodeResult.aborted(reason)
    confidence = min(res_bob.confidence, res_sonai.confidence)
    agreed = (
        res_bob.status is DecodeStatus.DECODED
        and res_sonai.status is DecodeStatus.DECODED
        and (res_bob.bob_bit, res_bob.sonai_bit) == (res_sonai.bob_bit, res_sonai.sonai_bit)
    )
    if agreed:
        return DecodeResult(DecodeStatus.DECODED, res_bob.bob_bit, res_bob.sonai_bit, confidence)
    return DecodeResult(DecodeStatus.UNDECIDED, None, None, confidence)


@dataclass(eq=False)
class SessionOutcome:
    """Everything a finished session leaves behind."""

    transcript: Transcript
    results: dict[Party, DecodeResult]
    receivers: dict[Party, Receiver]
    event_log: list[dict]
    ticks: int
    codebook: Codebook

    @property
    def terminal(self) -> DecodeResult:
        assert self.transcript.terminal is not None
        return self.transcript.terminal


def run_session(
    config: ProtocolConfig,
    bits: tuple[int, int],
    strategies: dict[Party, object] | None = None,
    cb: Codebook | None = None,
) -> SessionOutcome:
    """Run one complete session on the deterministic network simulator.

    A fresh codebook is generated from the session seed unless one is passed
    in. Strategies default to honest conduct for both receivers.
    """
    from . import netsim  # session runner sits on top of the simulator

    if cb is None:
        cb = resolve_codebook(None, config.n, config.lam, config.seed)
    world = netsim.build_world(config, bits, cb=cb, strategies=strategies)
    return netsim.run_world(world)


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bit string must be non-empty over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def run_message(
    bob_msg: str,
    sonai_msg: str,
    config: ProtocolConfig,
    strategies: dict[Party, object] | None = None,
) -> tuple[list[SessionOutcome], tuple[str, str]]:
    """Send two equal-length bit strings, one session per bit pair. Block i
    runs at the seed derived from the config seed at (KEY_BLOCK, i) on a
    fresh codebook from that address's codebook substream. Returns the
    sessions and the two messages concatenated from their terminal bits;
    raises ProtocolViolationError at the first block whose terminal record
    is not decoded."""
    bob_bits, sonai_bits = _parse_bits(bob_msg), _parse_bits(sonai_msg)
    if len(bob_bits) != len(sonai_bits):
        raise ValueError(f"message lengths differ: {len(bob_bits)} vs {len(sonai_bits)}")
    outcomes: list[SessionOutcome] = []
    for index, bits in enumerate(zip(bob_bits, sonai_bits)):
        cb = generate_codebook(config.n, config.lam, rng_mod.substream(
            config.seed, rng_mod.KEY_BLOCK, index, rng_mod.KEY_CODEBOOK))
        block_config = replace(config, seed=rng_mod.derive_seed(config.seed, rng_mod.KEY_BLOCK, index))
        outcome = run_session(block_config, bits, strategies=strategies, cb=cb)
        terminal = outcome.terminal
        if terminal.status is not DecodeStatus.DECODED:
            reason = terminal.abort_reason.value if terminal.abort_reason else terminal.status.value
            raise ProtocolViolationError(f"message block {index} did not decode: {reason}")
        outcomes.append(outcome)
    bob = "".join(str(outcome.terminal.bob_bit) for outcome in outcomes)
    sonai = "".join(str(outcome.terminal.sonai_bit) for outcome in outcomes)
    return outcomes, (bob, sonai)
