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
from typing import IO, Sequence

import numpy as np

from . import rng as rng_mod
from .codebook import Codebook, CodebookEntry, generate_codebook, resolve_codebook
from .epr import SpinOutcome, flip_outcomes, sample_block

__all__ = [
    "Party",
    "ProtocolConfig",
    "ProtocolViolationError",
    "PreparedBlock",
    "RevealEvent",
    "TerminalRecord",
    "Transcript",
    "Receiver",
    "DecodeStatus",
    "AbortReason",
    "DecodeResult",
    "SessionOutcome",
    "MessageFrame",
    "alice_prepare",
    "prepared_block_from_signs",
    "measure_all",
    "prepare_block",
    "prepare_session",
    "decode_block",
    "decode_transcript",
    "terminal_record",
    "run_session",
    "encode_message",
    "decode_message",
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
        if isinstance(self.noise, bool) or not isinstance(self.noise, (int, float)):
            raise ValueError(f"noise must be a number, got {self.noise!r}")
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


@dataclass(eq=False)
class PreparedBlock:
    """Delivered outcomes for one session, arranged by each party's ordering.

    Noiseless, bob_sequence[k] == -sonai_sequence[map(k)] for the entry's
    pairing map at every position.
    """

    entry: CodebookEntry
    bob_sequence: np.ndarray
    sonai_sequence: np.ndarray

    def sequence_for(self, party: Party) -> np.ndarray:
        if party is Party.BOB:
            return self.bob_sequence
        if party is Party.SONAI:
            return self.sonai_sequence
        raise ValueError("only receivers hold outcome sequences")


def prepared_block_from_signs(entry: CodebookEntry, signs: Sequence[int]) -> PreparedBlock:
    """Noiseless block with sender-side orientations forced to ``signs``
    (one +/-1 per pair label, in label order). Used for exhaustive studies."""
    i_side = np.asarray(signs, dtype=np.int8)
    # bob's ordering is the sender's identity; sonai's position p holds label s_j[p]
    sonai = (-i_side).take(entry.partner_arrays[1])
    return PreparedBlock(entry=entry, bob_sequence=i_side.copy(), sonai_sequence=sonai)


def alice_prepare(
    bits: tuple[int, int],
    cb: Codebook,
    noise: float,
    rng: np.random.Generator,
    noise_rng_bob: np.random.Generator | None = None,
    noise_rng_sonai: np.random.Generator | None = None,
) -> PreparedBlock:
    """Pick the entry for ``bits``, draw a fresh block, arrange both sides,
    then flip each delivered outcome independently with probability ``noise``."""
    entry = cb.entry_for_bits(*bits)
    prepared = prepared_block_from_signs(entry, sample_block(cb.n, rng))
    if noise:
        rng_b = noise_rng_bob if noise_rng_bob is not None else rng
        rng_s = noise_rng_sonai if noise_rng_sonai is not None else rng
        prepared.bob_sequence = flip_outcomes(prepared.bob_sequence, noise, rng_b)
        prepared.sonai_sequence = flip_outcomes(prepared.sonai_sequence, noise, rng_s)
    return prepared


def measure_all(party: Party, block: PreparedBlock) -> np.ndarray:
    """The party's outcomes in its own position order. Outcomes are
    predetermined at preparation, so measuring is a read-out and repeating it
    changes nothing."""
    return block.sequence_for(party).copy()


def prepare_block(seed: int, noise: float, bits: tuple[int, int], cb: Codebook) -> PreparedBlock:
    """The block of the session at ``seed``, from that seed's prepare and
    noise substreams. A noiseless block draws no noise, so its noise
    substreams are never built."""
    keys = (rng_mod.KEY_NOISE_BOB, rng_mod.KEY_NOISE_SONAI)
    noise_rngs = [rng_mod.substream(seed, key) if noise else None for key in keys]
    return alice_prepare(bits, cb, noise, rng_mod.substream(seed, rng_mod.KEY_PREPARE), *noise_rngs)


def prepare_session(
    config: ProtocolConfig, bits: tuple[int, int], cb: Codebook
) -> tuple[PreparedBlock, dict[Party, Receiver]]:
    """Prepare the config seed's block and give each receiver its measured
    outcomes."""
    block = prepare_block(config.seed, config.noise, bits, cb)
    receivers = {
        party: Receiver(party, cb, measure_all(party, block), config)
        for party in (Party.BOB, Party.SONAI)
    }
    return block, receivers


@dataclass(frozen=True)
class RevealEvent:
    """One published outcome: ``position`` is 1-based in the revealer's own
    ordering; ``round`` numbers reveals globally from 1."""

    round: int
    party: Party
    position: int
    outcome: SpinOutcome


@dataclass(frozen=True)
class TerminalRecord:
    """Session outcome line appended after the reveal events."""

    status: DecodeStatus
    bob_bit: int | None
    sonai_bit: int | None
    confidence: float
    abort_reason: AbortReason | None

    def to_json_obj(self) -> dict:
        return {
            "status": self.status.value,
            "bob_bit": self.bob_bit,
            "sonai_bit": self.sonai_bit,
            "confidence": self.confidence,
            "abort_reason": self.abort_reason.value if self.abort_reason else None,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TerminalRecord":
        """Parse a terminal line. Only the three shapes ``terminal_record``
        writes are accepted: decoded (both bits, no abort reason), undecided
        (no bits, no reason) and abort (no bits, confidence 0, a reason)."""
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


class Transcript:
    """Append-only public record of a session: reveals plus a terminal line.

    The reveals are columns in round order: the revealer's side (0 bob, 1
    sonai), its 1-based position, the outcome (+1 or -1) and the line of the
    JSON text it sits on. Every reveal passes ``_admit``, the one site of
    the public rules."""

    def __init__(self) -> None:
        self.terminal: TerminalRecord | None = None
        self._sides, self._positions, self._outcomes, self._lines = [], [], [], []
        self._seen: set[int] = set()  # 2 * position + side of every reveal

    def __len__(self) -> int:
        """The number of reveals."""
        return len(self._sides)

    def _admit(self, round_, party, position, outcome: int, line: int) -> None:
        """Record one reveal if it keeps the rules: integer round and
        position, outcome +1 or -1, a receiver revealing, an open transcript,
        rounds rising by one and no repeated (party, position)."""
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
        if 2 * position + side in self._seen:
            raise ProtocolViolationError(
                f"duplicate reveal of {_RECEIVERS[side].value} position {position}")
        self._seen.add(2 * position + side)
        self._sides.append(side)
        self._positions.append(position)
        self._outcomes.append(outcome)
        self._lines.append(line)

    def append(self, event: RevealEvent) -> None:
        """Record ``event``, which sits on line ``event.round`` of ``to_jsonl``."""
        self._admit(event.round, event.party, event.position, int(event.outcome), event.round)

    @property
    def events(self) -> list[RevealEvent]:
        """The reveals in round order, in a new list: editing it changes nothing."""
        columns = zip(self._sides, self._positions, self._outcomes)
        return [RevealEvent(round_, _RECEIVERS[side], position, SpinOutcome(outcome))
                for round_, (side, position, outcome) in enumerate(columns, start=1)]

    @property
    def sides(self) -> tuple[int, ...]:
        """Who made each reveal, in round order: 0 for bob, 1 for sonai."""
        return tuple(self._sides)

    def close(self, terminal: TerminalRecord) -> None:
        if self.terminal is not None:
            raise ProtocolViolationError("transcript already closed")
        self.terminal = terminal

    def to_jsonl(self, fp: IO[str] | None = None) -> str:
        lines = [json.dumps({"round": e.round, "party": e.party.value, "position": e.position,
                             "outcome": e.outcome.symbol}, separators=(",", ":")) for e in self.events]
        if self.terminal is not None:
            lines.append(json.dumps(self.terminal.to_json_obj(), separators=(",", ":")))
        text = "\n".join(lines) + ("\n" if lines else "")
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """Parse a recorded transcript; raises ProtocolViolationError with the
        offending line number on malformed or rule-breaking lines. Each line
        is one JSON document, read exactly as ``json.loads`` reads it."""
        transcript = cls()
        admit = transcript._admit
        for lineno, line in enumerate(text.splitlines(), start=1):
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
                    transcript.close(TerminalRecord.from_json_obj(obj))
                else:
                    outcome = _OUTCOMES.get(obj["outcome"], 0)
                    admit(obj["round"], obj["party"], obj["position"], outcome, lineno)
            except ProtocolViolationError as exc:
                raise ProtocolViolationError(f"line {lineno}: {exc}") from exc
            except (KeyError, ValueError, TypeError) as exc:
                raise ProtocolViolationError(f"line {lineno}: malformed record: {exc}") from exc
        return transcript


def _fold_checks(cb: Codebook, bob: np.ndarray, sonai: np.ndarray):
    """The check kernel, shared by receivers, batches and replay. ``bob`` and
    ``sonai`` are (..., n) blocks of the table of known values, each row in
    its own position order, with 0 where a value is still private. For each
    entry, the check on bob's position k pairs it with sonai's partner
    position: the product of the two values is 0 while either is private,
    -1 when the check passes and +1 when it is violated. Returns done and
    passed, each (..., entries, n) in bob's positions, so reveal order does
    not matter."""
    product = bob[..., None, :] * sonai.take(cb.partner_index, axis=-1)
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
    """One receiver's view of the public table: its own row of outcomes and
    the counterpart's row as revealed so far (``theirs``, 0 while private).

    Each counterpart reveal completes exactly one check per entry: the
    revealed outcome is compared with the own outcome at the entry's paired
    position, expecting opposite signs. ``violations`` counts, per entry,
    the checks completed so far that failed; decoding folds the whole view.
    """

    def __init__(self, party: Party, cb: Codebook, own_outcomes: np.ndarray, config: ProtocolConfig):
        if party not in _SIDES:
            raise ValueError("only receivers decode")
        self.side = _SIDES[party]  # the row of the table holding own outcomes
        self.party = party
        self.codebook = cb
        self.config = config
        self.own = np.asarray(own_outcomes).tolist()
        self.theirs = [0] * cb.n
        self.violations = [0] * len(cb.entries)
        # per entry: counterpart 0-based position -> own 0-based position
        self._own_partner = [e.partner_maps[1 - self.side] for e in cb.entries]
        self.received_count = 0
        self.next_position = 0  # 0-based pointer into own reveal order

    # -- reveal side ------------------------------------------------------

    def next_reveal(self) -> tuple[int, int] | None:
        """(1-based position, own outcome) for the lowest unrevealed own
        position, or None when everything is out."""
        if self.next_position >= len(self.own):
            return None
        pos = self.next_position
        self.next_position += 1
        return pos + 1, self.own[pos]

    @property
    def sent_count(self) -> int:
        return self.next_position

    # -- observation side --------------------------------------------------

    def observe_reveal(self, position: int, outcome: int) -> None:
        """Fill one counterpart value into the view and count the checks it
        violates: those whose paired own outcome has the same sign."""
        q = position - 1
        if not 0 <= q < len(self.own):
            raise ProtocolViolationError(f"reveal position out of range: {position}")
        if outcome not in (1, -1):
            raise ProtocolViolationError(f"reveal outcome must be +1 or -1, got {outcome!r}")
        if self.theirs[q]:
            counterpart = self.party.counterpart().value
            raise ProtocolViolationError(f"duplicate reveal of {counterpart} position {position}")
        self.theirs[q] = outcome
        self.received_count += 1
        own = self.own
        self.violations = [v + (own[partner[q]] == outcome)
                           for v, partner in zip(self.violations, self._own_partner)]

    @property
    def received_all(self) -> bool:
        return self.received_count >= self.codebook.n

    @property
    def alive(self) -> list[bool]:
        """Per entry, in codebook order: whether its violations stay within
        delta times the checks completed so far."""
        limit = self.config.delta * self.received_count
        return [v <= limit for v in self.violations]

    # -- decoding ----------------------------------------------------------

    def _view(self) -> tuple[np.ndarray, np.ndarray]:
        """Bob's and sonai's rows of the table as this receiver knows them,
        as one-trial (1, n) blocks."""
        rows = (self.own, self.theirs) if self.side == 0 else (self.theirs, self.own)
        table = np.array(rows, dtype=np.int8)
        return table[:1], table[1:]

    def survival_log2(self, bits: tuple[int, int], reference_bits: tuple[int, int]) -> int:
        """log2 of the chance the entry for ``bits`` would have passed its
        completed checks were the entry for ``reference_bits`` the true one.
        Exact only for noiseless sessions, so noisy ones raise."""
        if self.config.noise:
            raise ValueError("exact survival rank applies only to noiseless sessions")
        order = [e.bits for e in self.codebook.entries]
        i, j = order.index(tuple(bits)), order.index(tuple(reference_bits))
        _, passed = _fold_checks(self.codebook, *self._view())
        return _survival_log2(passed[0, i], self.codebook.cycles(i, j))

    def decode(self) -> "DecodeResult":
        return decode_block(self.codebook, self.config, *self._view())[0][0]


@dataclass(frozen=True)
class DecodeResult:
    status: DecodeStatus
    bob_bit: int | None
    sonai_bit: int | None
    confidence: float
    abort_reason: AbortReason | None = None

    @classmethod
    def aborted(cls, reason: AbortReason) -> "DecodeResult":
        return cls(DecodeStatus.ABORT, None, None, 0.0, reason)


def _decode_candidates(cb: Codebook, checks: Sequence[int], violations: Sequence[int],
                       passed: np.ndarray, config: ProtocolConfig) -> DecodeResult:
    """The one decode rule, shared by private receivers, transcript replays
    and batches. It reads per-entry counts in codebook order: ``checks``
    completed and the ``violations`` among them. ``passed[i]``, entry i's
    passed checks over bob's positions, is read only for a noiseless
    survival rank."""
    delta = config.delta
    alive = [i for i in range(len(checks)) if violations[i] <= delta * checks[i]]
    if not alive:
        return DecodeResult.aborted(AbortReason.NO_CONSISTENT_ENTRY)
    if not config.noise:
        lead = alive[0]  # entries stay in the fixed bit-pair order
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
        lead = min(alive, key=lambda i: (violations[i], i))
        peak = max(loglik)
        total = sum(math.exp(w - peak) for w in loglik)
        confidence = math.exp(loglik[lead] - peak) / total
    if len(alive) == 1 and confidence >= config.confidence_target:
        bob_bit, sonai_bit = cb.entries[lead].bits
        return DecodeResult(DecodeStatus.DECODED, bob_bit, sonai_bit, confidence)
    return DecodeResult(DecodeStatus.UNDECIDED, None, None, confidence)


def decode_block(cb: Codebook, config: ProtocolConfig, bob: np.ndarray,
                 sonai: np.ndarray) -> tuple[list[DecodeResult], list[list[bool]]]:
    """Fold and decode (trials, n) blocks of the table's two rows. Returns
    each trial's decode result and which entries stayed alive, in codebook
    order. Both receivers of a complete exchange hold the same table, so one
    result serves both."""
    done, passed = _fold_checks(cb, bob, sonai)
    checks = done.sum(axis=-1)
    checks, violations = checks.tolist(), (checks - passed.sum(axis=-1)).tolist()
    results = [_decode_candidates(cb, k, v, passed[t], config)
               for t, (k, v) in enumerate(zip(checks, violations))]
    alive = [[v <= config.delta * k for k, v in zip(ks, vs)] for ks, vs in zip(checks, violations)]
    return results, alive


def _public_table(cb: Codebook, transcript: Transcript) -> np.ndarray:
    """The (2, n) table of the values a public record reveals: bob's row,
    then sonai's, with 0 where a value is still private. Positions are
    checked against ``cb.n`` before anything of size n is allocated."""
    n, positions = cb.n, transcript._positions
    if positions and not (min(positions) >= 1 and max(positions) <= n):
        k = next(k for k, position in enumerate(positions) if not 1 <= position <= n)
        raise ProtocolViolationError(f"line {transcript._lines[k]}: reveal position out of range: "
                                     f"{positions[k]}")
    table = np.zeros((2, n), dtype=np.int8)
    table[transcript._sides, np.array(positions, dtype=np.intp) - 1] = transcript._outcomes
    return table


def decode_transcript(cb: Codebook, transcript: Transcript, config: ProtocolConfig) -> DecodeResult:
    """Decode from the public record alone. A complete transcript reveals
    the table both receivers end with, so replay reaches their end state; a
    truncated one yields a partial, usually undecided, view."""
    table = _public_table(cb, transcript)
    return decode_block(cb, config, table[:1], table[1:])[0][0]


def terminal_record(
    res_bob: DecodeResult,
    res_sonai: DecodeResult,
    transport_abort: AbortReason | None = None,
) -> TerminalRecord:
    """Session outcome from both receivers' results. A transport abort wins,
    then the first decode abort in act order (bob, then sonai); otherwise the
    session decodes only when both receivers decoded the same bits."""
    reason = transport_abort
    if reason is None:
        reason = next(
            (r.abort_reason for r in (res_bob, res_sonai) if r.status is DecodeStatus.ABORT), None
        )
    if reason is not None:
        return TerminalRecord(DecodeStatus.ABORT, None, None, 0.0, reason)
    confidence = min(res_bob.confidence, res_sonai.confidence)
    agreed = (
        res_bob.status is DecodeStatus.DECODED
        and res_sonai.status is DecodeStatus.DECODED
        and (res_bob.bob_bit, res_bob.sonai_bit) == (res_sonai.bob_bit, res_sonai.sonai_bit)
    )
    if agreed:
        return TerminalRecord(DecodeStatus.DECODED, res_bob.bob_bit, res_bob.sonai_bit, confidence, None)
    return TerminalRecord(DecodeStatus.UNDECIDED, None, None, confidence, None)


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
    def terminal(self) -> TerminalRecord:
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


@dataclass(frozen=True)
class MessageFrame:
    """A multi-bit payload for each receiver, one prepared session per index."""

    bob_bits: tuple[int, ...]
    sonai_bits: tuple[int, ...]
    codebooks: tuple[Codebook, ...]

    def __len__(self) -> int:
        return len(self.bob_bits)


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bit string must be non-empty over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def encode_message(bob_msg: str, sonai_msg: str, config: ProtocolConfig) -> MessageFrame:
    """Frame two equal-length bit strings: one session (and one fresh
    codebook) per bit-pair index."""
    bob_bits = _parse_bits(bob_msg)
    sonai_bits = _parse_bits(sonai_msg)
    if len(bob_bits) != len(sonai_bits):
        raise ValueError(
            f"message lengths differ: {len(bob_bits)} vs {len(sonai_bits)}"
        )
    codebooks = tuple(
        generate_codebook(
            config.n,
            config.lam,
            rng_mod.substream(config.seed, rng_mod.KEY_BLOCK, index, rng_mod.KEY_CODEBOOK),
        )
        for index in range(len(bob_bits))
    )
    return MessageFrame(bob_bits=bob_bits, sonai_bits=sonai_bits, codebooks=codebooks)


def decode_message(outcomes: Sequence[SessionOutcome]) -> tuple[str, str]:
    """Concatenate the sessions' terminal bits; a session whose terminal
    record is not decoded fails the whole message."""
    bob: list[str] = []
    sonai: list[str] = []
    for index, outcome in enumerate(outcomes):
        terminal = outcome.terminal
        if terminal.status is not DecodeStatus.DECODED:
            reason = terminal.abort_reason.value if terminal.abort_reason else terminal.status.value
            raise ProtocolViolationError(f"message block {index} did not decode: {reason}")
        bob.append(str(terminal.bob_bit))
        sonai.append(str(terminal.sonai_bit))
    return "".join(bob), "".join(sonai)


def run_message(
    bob_msg: str,
    sonai_msg: str,
    config: ProtocolConfig,
    strategies: dict[Party, object] | None = None,
) -> tuple[list[SessionOutcome], tuple[str, str]]:
    """Encode, run one session per bit pair, decode. Raises on any block
    that fails to decode, mirroring decode_message."""
    frame = encode_message(bob_msg, sonai_msg, config)
    outcomes: list[SessionOutcome] = []
    for index in range(len(frame)):
        block_config = replace(config, seed=rng_mod.derive_seed(config.seed, rng_mod.KEY_BLOCK, index))
        outcomes.append(
            run_session(
                block_config,
                (frame.bob_bits[index], frame.sonai_bits[index]),
                strategies=strategies,
                cb=frame.codebooks[index],
            )
        )
    return outcomes, decode_message(outcomes)
