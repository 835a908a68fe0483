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

import functools
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count, repeat
from operator import is_not, not_, or_
from typing import IO, Iterator, Sequence

import numpy as np

from . import rng as rng_mod
from .codebook import Codebook, CodebookEntry
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
    "alice_prepare",
    "prepared_block_from_signs",
    "decode_block",
    "decode_transcript",
    "terminal_record",
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
_MALFORMED = "malformed record: {}"
_OUT_OF_RANGE = "reveal position out of range: {}"  # a receiver's rules too
_REPEATED = "duplicate reveal of {} position {}"
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines cuts
# The one reveal-line form: to_jsonl writes it, and from_jsonl reads lines in
# it straight from a match. Round and position are positive, with no leading
# zero and at most 18 digits, far below int()'s digit limit.
_REVEAL = '{"round":%s,"party":"%s","position":%s,"outcome":"%s"}'
_NUMBER = "([1-9][0-9]{0,17})"
_FORM = re.escape(_REVEAL) % (_NUMBER, "(bob|sonai)", _NUMBER, "([+-])")
# one match per line of "\n"-ended text: a line in the reveal form with its four
# fields, or any other line, whose four fields are empty
_LINE = re.compile(f"(?:{_FORM}|.*)\n")
_SLICE = 4096  # lines matched at once, which bounds the match tuples and columns held


def _line_blocks(fp: IO[str]) -> Iterator[list[str]]:
    """The lines of the text stream ``fp`` as ``str.splitlines`` cuts its
    whole text, one list per read of 64 Ki characters, or more while one line
    runs on, so a long line still reads in linear time: what is held grows
    with the longest line, not with the stream."""
    rest = ""  # an unfinished last line, which the next block extends
    while block := fp.read(max(1 << 16, len(rest))):
        text = rest + block
        lines = text.splitlines()
        if text[-1] == "\r":  # it may pair with a \n to come
            rest = lines.pop() + "\r"
        else:
            rest = "" if text[-1] in _BREAKS else lines.pop()
        yield lines
    yield rest.splitlines()


def _read_record(line: str):
    """``line`` read as ``json.loads`` reads it: None if blank, the terminal
    line's ``DecodeResult``, or a reveal's (round, party, position,
    outcome), the outcome as +1, -1 or 0 for any other value."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise ProtocolViolationError(f"not valid JSON: {exc}") from exc
    try:
        if "status" in obj:
            return DecodeResult.from_json_obj(obj)
        outcome = _OUTCOMES.get(obj["outcome"], 0)
        return obj["round"], obj["party"], obj["position"], outcome
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolViolationError(_MALFORMED.format(exc)) from exc


def _form_fields(round_, party, position, outcome) -> tuple[str, ...] | None:
    """A reveal ``_read_record`` read, in the ``_REVEAL`` form's fields, or
    None if the form cannot spell it."""
    if (type(round_) is int and type(position) is int and 0 < round_ < 10**18
            and 0 < position < 10**18 and party in ("bob", "sonai") and outcome in (1, -1)):
        return str(round_), party, str(position), "+" if outcome == 1 else "-"
    return None


def _not_a_receiver(party) -> str:
    try:
        hash(party)  # as a dict lookup would: an unhashable party is malformed
        return f"{Party(party).value} is not a receiver and cannot reveal"
    except (TypeError, ValueError) as exc:
        return _MALFORMED.format(exc)


class Transcript:
    """Append-only public record of a session over ``n`` pairs: reveals
    plus a terminal line. The reveals are columns in round order: the
    revealer's side (0 bob, 1 sonai), its 1-based position and the outcome
    (+1 or -1). Every reveal, read or simulated, enters through ``admit``,
    the one site of the public rules, so it holds at most 2n reveals."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.terminal: DecodeResult | None = None
        self._runs: list[np.ndarray] = []  # each admitted run's (3, rows) side, position, outcome
        self._seen: set[int] = set()  # 2 * position + side of every reveal

    def __len__(self) -> int:
        """The number of reveals."""
        return len(self._seen)

    def _columns(self) -> np.ndarray:
        """The (3, len) reveals in round order: side, position, outcome."""
        return np.concatenate([np.empty((3, 0), dtype=np.int64), *self._runs], axis=1)

    def admit(self, rounds: Sequence, parties: Sequence, positions: Sequence,
              outcomes: Sequence, lines: Sequence[int] | None = None) -> None:
        """Record a run of reveals given as columns (round, party, 1-based
        position, outcome) if every row keeps the rules; otherwise record
        none and raise for the first row that breaks one, naming its line if
        ``lines`` gives each row's. A row's rules, in order: integer round
        and position, outcome +1 or -1; a receiver reveals; the record is
        open; rounds rise by one from ``len + 1``; positions lie in 1..n; no
        (party, position) repeats, in the run or before it. A number column
        that is an int64 array is tested whole, any other row by row."""
        size, start = len(rounds), len(self) + 1
        try:
            sides = np.fromiter(map(_SIDES.get, parties, repeat(2)), np.int64, size)
        except TypeError:  # an unhashable party, which is no receiver either
            sides = np.array([_SIDES.get(p, 2) if p.__hash__ else 2 for p in parties], np.int64)
        if getattr(outcomes, "dtype", None) == np.int64:  # as replay and the simulator pass it
            malformed = (outcomes != 1) & (outcomes != -1)
        else:
            malformed = ~np.fromiter(map((1, -1).__contains__, outcomes), bool, size)
        for column in (rounds, positions):  # an int64 array holds integers; a bool is none
            if getattr(column, "dtype", None) != np.int64:
                malformed |= np.fromiter(map(is_not, map(type, column), repeat(int)), bool, size)
        try:
            numbers = np.array((rounds, positions), dtype=np.int64).reshape(2, size)
        except (TypeError, ValueError, OverflowError):  # 0 stands for a number no rule admits
            numbers = np.array([[v if type(v) is int and -1 << 63 <= v < 1 << 63 else 0
                                 for v in column] for column in (rounds, positions)], np.int64)
        keys = 2 * numbers[1] + sides
        repeated = np.ones(size, dtype=bool)  # a key repeats in the run or before it
        repeated[np.unique(keys, return_index=True)[1]] = False  # each key's first row
        keys = keys.tolist()
        repeated |= np.fromiter(map(self._seen.__contains__, keys), bool, size)
        rules = (  # (the rows that break the rule, its message for row i), in the order tested
            (malformed, lambda i: _MALFORMED.format(f"round {rounds[i]!r} and position "
                                                    f"{positions[i]!r} must be integers, "
                                                    "the outcome + or -")),
            (sides > 1, lambda i: _not_a_receiver(parties[i])),
            (self.terminal is not None, lambda i: "transcript already closed by a terminal record"),
            (numbers[0] != np.arange(start, start + size), lambda i: "round numbers must "
                f"increase by one: expected {start + i}, got {rounds[i]}"),
            ((numbers[1] < 1) | (numbers[1] > self.n),
             lambda i: _OUT_OF_RANGE.format(positions[i])),
            (repeated, lambda i: _REPEATED.format(_RECEIVERS[sides[i]].value, positions[i])),
        )
        broken = functools.reduce(or_, (mask for mask, _ in rules))
        if broken.any():
            i = int(broken.argmax())
            message = next(message for mask, message in rules if np.broadcast_to(mask, size)[i])
            where = "" if lines is None else f"line {lines[i]}: "
            raise ProtocolViolationError(where + message(i))
        self._seen.update(keys)
        self._runs.append(np.stack((sides, numbers[1], np.asarray(outcomes, dtype=np.int64))))

    def _read_lines(self, first: int, lines: list[str]) -> None:
        """Admit ``lines``, numbered from ``first``. A line in the ``_REVEAL``
        form gives its row's fields from a match, a blank line none, and
        another reveal the form can spell the fields of that spelling. Any
        other line ends the run: its rows are admitted first, so an earlier
        break is the one reported, then the line closes the record, is
        admitted alone or fails."""
        text = "\n".join(lines) + "\n"
        # the fields as strings, each column ended by an empty field that stands for the end
        rounds, parties, positions, outcomes = zip(*_LINE.findall(text), ("",) * 4)
        numbered = range(first, first + len(lines))  # each line's number
        run = ([], [], [], [], [])  # the fields of the rows not yet admitted, and their lines
        i = 0  # the first line not yet read
        for j in compress(count(), map(not_, rounds)):  # each other line, then the end
            for column, read in zip(run, (rounds, parties, positions, outcomes, numbered)):
                column += read[i:j]
            i = j + 1
            if j == len(lines):
                break
            try:
                record = _read_record(lines[j])
            except ProtocolViolationError as exc:
                record = exc  # raised once the rows before it are admitted
            fields = isinstance(record, tuple) and _form_fields(*record)
            if fields:
                for column, field in zip(run, (*fields, first + j)):
                    column.append(field)
            elif record is not None:
                self._admit_fields(run)
                if isinstance(record, tuple):  # a reveal the form cannot spell
                    self.admit(*zip(record), [first + j])
                    continue
                try:
                    if isinstance(record, ProtocolViolationError):
                        raise record
                    self.close(record)
                except ProtocolViolationError as exc:
                    raise ProtocolViolationError(f"line {first + j}: {exc}") from exc
        self._admit_fields(run)

    def _admit_fields(self, run: tuple[list, ...]) -> None:
        """Admit the rows whose fields, then lines, ``run`` holds; empty it."""
        rounds, parties, positions, outcomes, lines = run
        # the numbers, then the outcomes read as +1 and -1
        text = " ".join(rounds + positions + [""]) + "1 ".join(outcomes + [""])
        rounds, positions, outcomes = np.fromstring(text, dtype=np.int64, sep=" ").reshape(3, -1)
        self.admit(rounds, parties, positions, outcomes, lines)
        for column in run:
            column.clear()

    @property
    def sides(self) -> tuple[int, ...]:
        """Who made each reveal, in round order: 0 for bob, 1 for sonai."""
        return tuple(self._columns()[0].tolist())

    def table(self) -> np.ndarray:
        """The (2, n) table of the values the record reveals: bob's row, then
        sonai's, with 0 where a value is still private."""
        sides, positions, outcomes = self._columns()
        table = np.zeros((2, self.n), dtype=np.int8)
        table[sides, positions - 1] = outcomes
        return table

    def close(self, terminal: DecodeResult) -> None:
        if self.terminal is not None:
            raise ProtocolViolationError("transcript already closed")
        self.terminal = terminal

    def to_jsonl(self, fp: IO[str] | None = None) -> str:
        columns = zip(*self._columns().tolist())
        lines = [_REVEAL % (round_, _RECEIVERS[side].value, position, "+" if outcome == 1 else "-")
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
        ``json.loads`` reads it. ``_read_lines`` admits ``_SLICE`` lines at a
        time in one ``admit`` call (two at the terminal line), so a record
        reads, and fails, as line by line."""
        transcript = cls(n)
        first = 1  # the number of the block's first line
        for lines in _line_blocks(fp):
            for start in range(0, len(lines), _SLICE):
                transcript._read_lines(first + start, lines[start:start + _SLICE])
            first += len(lines)
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


def _survival_ranks(cb: Codebook, passed: np.ndarray, rows: np.ndarray, cands: np.ndarray,
                    refs: np.ndarray) -> np.ndarray:
    """The one rank kernel (noiseless only). For each r: log2 of the chance
    candidate entry ``cands[r]`` would have passed its checks marked in
    ``passed[rows[r], cands[r]]`` (booleans over bob's positions, from
    ``_fold_checks``), were entry ``refs[r]`` the true one.

    A passed check on position k ties k and pi(k) to one orientation, pi
    being the map the pair's ``Codebook.cycles`` labels. The ties on a cycle
    of pi are independent coin flips until they close it, so a cycle of
    length L with m passed checks adds min(m, L - 1) to minus the rank. One
    bincount over the cycle labels, offset by n per r, counts every cycle's
    passed checks at once."""
    marked = passed[rows, cands]  # (len(rows), n)
    labels, excess = cb.cycles(cands, refs)
    offset = np.arange(0, marked.size, cb.n)[:, None]
    hits = np.bincount((labels + offset)[marked], minlength=marked.size).reshape(marked.shape)
    return -np.minimum(hits, excess).sum(axis=1)


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
            raise ProtocolViolationError(_OUT_OF_RANGE.format(position))
        if outcome not in (1, -1):
            raise ProtocolViolationError(f"reveal outcome must be +1 or -1, got {outcome!r}")
        if self._theirs[q]:
            counterpart = self.party.counterpart().value
            raise ProtocolViolationError(_REPEATED.format(counterpart, position))
        self._theirs[q] = outcome
        self.arrivals.append(q)

    @property
    def alive(self) -> list[bool]:
        """Per entry, in codebook order: whether the current view keeps it alive."""
        return decode_block(self.codebook, self.config, self.table[None])[2][0].tolist()

    # -- decoding ----------------------------------------------------------

    def survival_log2(self, bits: tuple[int, int], reference_bits: tuple[int, int]) -> int:
        """log2 of the chance the entry for ``bits`` would have passed its
        completed checks were the entry for ``reference_bits`` the true one.
        Exact only for noiseless sessions, so noisy ones raise."""
        if self.config.noise:
            raise ValueError("exact survival rank applies only to noiseless sessions")
        order = [e.bits for e in self.codebook.entries]
        row, cand, ref = np.array([[0], [order.index(tuple(bits))],
                                   [order.index(tuple(reference_bits))]])
        _, passed = _fold_checks(self.codebook, self.table[None])
        return int(_survival_ranks(self.codebook, passed, row, cand, ref)[0])

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
            # a lone live entry is its own lead, so no survival rank is read
            result = _decode_candidates(cb, self.config, alive[:, j].tolist(), (0,) * entries,
                                        (c,) * entries, violations[:, c].tolist())
            if result.status is DecodeStatus.DECODED:
                return c, result
        return None


def _alive(checks: np.ndarray, violations: np.ndarray, delta: float) -> np.ndarray:
    """The one elimination rule: an entry stays alive while at most a
    ``delta`` fraction of its completed checks are violated."""
    return violations <= delta * checks


def _decode_candidates(cb: Codebook, config: ProtocolConfig, kept: Sequence[bool],
                       ranks: Sequence[int], checks: Sequence[int],
                       violations: Sequence[int]) -> DecodeResult:
    """The one decode rule, shared by private receivers, transcript replays
    and batches. It takes per-entry values in codebook order: whether
    ``_alive`` ``kept`` the entry, the survival ``ranks`` of the live
    entries against the lead (``_lead_ranks``), the ``checks`` completed
    and the ``violations`` among them. Noiseless it reads only kept and
    ranks, noisy only kept, checks and violations, so a block runs it once
    per distinct (kept, ranks) or (checks, violations). It reads the
    entries in ``BIT_PAIR_ORDER``, so the order a book lists them in never
    matters."""
    order = cb.bit_pair_order
    alive = [i for i in order if kept[i]]
    if not alive:
        return DecodeResult.aborted(AbortReason.NO_CONSISTENT_ENTRY)
    if not config.noise:
        lead = alive[0]
        rest = 0.0  # sums here run left to right: sum() of floats compensates from 3.12
        for i in alive[1:]:
            rest += 2.0 ** ranks[i]
        confidence = max(0.0, 1.0 - rest)
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
        log_q, log_p = math.log(q), math.log1p(-q)
        loglik = [v * log_q + (k - v) * log_p if k else 0.0 for k, v in zip(checks, violations)]
        lead = min(alive, key=violations.__getitem__)  # ties go to the first in order
        peak = max(loglik)
        total = 0.0
        for i in order:
            total += math.exp(loglik[i] - peak)
        confidence = math.exp(loglik[lead] - peak) / total
    if len(alive) == 1 and confidence >= config.confidence_target:
        bob_bit, sonai_bit = cb.entries[lead].bits
        return DecodeResult(DecodeStatus.DECODED, bob_bit, sonai_bit, confidence)
    return DecodeResult(DecodeStatus.UNDECIDED, None, None, confidence)


def _lead_ranks(cb: Codebook, passed: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """(trials, entries): each live entry's survival rank against its
    trial's lead, the first live entry in ``BIT_PAIR_ORDER``, so 0 for the
    lead, and 1, which no rank is, for a dead entry: a trial's row is all
    the noiseless decode rule reads. ``passed`` is the block's fold and
    ``alive`` its ``_alive`` mask."""
    live = alive.take(cb.bit_pair_order, axis=1)  # the mask in bit-pair order
    first = live.argmax(axis=1)  # the lead's place in that order
    live[np.arange(len(live)), first] = False  # the other live entries are the candidates
    rows, places = live.nonzero()
    ranks = (~alive).astype(np.intp)
    if len(rows):
        order = np.array(cb.bit_pair_order)
        cands, refs = order[places], order[first[rows]]
        ranks[rows, cands] = _survival_ranks(cb, passed, rows, cands, refs)
    return ranks


def decode_block(cb: Codebook, config: ProtocolConfig,
                 tables: np.ndarray) -> tuple[list[DecodeResult], np.ndarray, np.ndarray]:
    """Fold and decode a (trials, 2, n) block of tables. Returns
    ``(results, which, alive)``: each distinct decode result once, in the
    order its key first appears, the index into ``results`` of each trial's
    result, and the (trials, entries) bool mask of the entries that stayed
    alive, in codebook order. Both receivers of a complete exchange hold the
    same table, so one result serves both. The decode rule runs once per
    distinct key: a trial's ``_lead_ranks`` row noiseless, which also marks
    its dead entries, and its checks and violations noisy."""
    done, passed = _fold_checks(cb, tables)
    checks = done.sum(axis=-1)
    violations = checks - passed.sum(axis=-1)
    alive = _alive(checks, violations, config.delta)
    ranks = np.zeros_like(checks) if config.noise else _lead_ranks(cb, passed, alive)
    key = np.concatenate((checks, violations), axis=1) if config.noise else ranks
    raw, width = key.tobytes(), key.itemsize * key.shape[1]  # a trial's key: its row's bytes
    kept, ranks = alive.tolist(), ranks.tolist()
    checks, violations = checks.tolist(), violations.tolist()
    results, memo, which = [], {}, []
    for t, start in enumerate(range(0, len(raw), width)):
        key_t = raw[start:start + width]
        index = memo.get(key_t)
        if index is None:
            index = memo[key_t] = len(results)
            results.append(_decode_candidates(cb, config, kept[t], ranks[t], checks[t],
                                              violations[t]))
        which.append(index)
    return results, np.array(which, dtype=np.intp), alive


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
