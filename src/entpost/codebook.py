"""Permutation-pair codebooks.

An ordering lists the pair labels 1..n. The sender's own ordering is fixed
to the identity and Bob's outcomes follow it, so a codebook entry is one
double-bit value plus Sonai's ordering s_j: position k on Bob's side is
anti-correlated with the position of label k in s_j on Sonai's side. A
codebook holds one entry per double-bit value. Decoding security rests on the
entries being far apart under the effective distance defined below: a wrong
entry passes a full noiseless consistency check with probability exactly
2**(-distance).
"""
from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import rng as rng_mod

__all__ = [
    "BIT_PAIR_ORDER",
    "CodebookError",
    "CapacityError",
    "Defect",
    "CodebookEntry",
    "Codebook",
    "validate_sequence",
    "repair_sequence",
    "effective_distance",
    "generate_codebook",
    "resolve_codebook",
    "validate_codebook",
    "make_entry",
    "reference_codebook",
    "codebook_to_document",
    "codebook_from_document",
    "save_codebook",
    "load_codebook",
    "sequence_to_letters",
]

# Double bits in the order the entries are listed and tie-broken everywhere:
# (bob_bit, sonai_bit).
BIT_PAIR_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (0, 1), (1, 0))

CODEBOOK_FORMAT_VERSION = 1

# Candidate orderings generate_codebook rejects before it gives up.
MAX_REJECTIONS = 10_000


class CodebookError(Exception):
    """Invalid sequence, entry or codebook document; ``defects`` lists a book's defects."""

    def __init__(self, message: str, defects: Sequence[Defect] = ()):
        super().__init__(message)
        self.defects = list(defects)


class CapacityError(CodebookError):
    """Rejection sampling could not fit four entries at the requested distance."""


@dataclass(frozen=True)
class Defect:
    """One validation finding; ``kind`` is stable, ``message`` is for humans."""

    kind: str  # duplicate-label | missing-label | bad-label | length | bits | distance
    message: str
    labels: tuple[int, ...] = ()


def validate_sequence(order: Sequence[int], n: int) -> list[Defect]:
    """Defects that keep ``order`` from being a permutation of 1..n."""
    defects: list[Defect] = []
    if len(order) != n:
        defects.append(Defect("length", f"expected {n} labels, got {len(order)}"))
    seen: dict[int, int] = {}
    bad: list[int] = []
    for label in order:
        if not isinstance(label, int) or isinstance(label, bool) or not 1 <= label <= n:
            bad.append(label)
            continue
        seen[label] = seen.get(label, 0) + 1
    duplicates = tuple(sorted(l for l, c in seen.items() if c > 1))
    missing = tuple(sorted(set(range(1, n + 1)) - seen.keys()))
    if bad:
        defects.append(Defect("bad-label", f"labels outside 1..{n}: {bad}", tuple(bad)))
    if duplicates:
        defects.append(
            Defect("duplicate-label", f"labels appear more than once: {list(duplicates)}", duplicates)
        )
    if missing:
        defects.append(Defect("missing-label", f"labels never appear: {list(missing)}", missing))
    return defects


def repair_sequence(order: Sequence[int], n: int) -> tuple[int, ...]:
    """Minimal fix of a defective ordering: every repeated or out-of-range
    slot after a label's first appearance is refilled with the missing labels
    in ascending order. Valid orderings pass through unchanged."""
    if len(order) != n:
        raise CodebookError(f"cannot repair a length-{len(order)} ordering to n={n}")
    seen: set[int] = set()
    keep: list[int | None] = []
    for label in order:
        if isinstance(label, int) and 1 <= label <= n and label not in seen:
            seen.add(label)
            keep.append(label)
        else:
            keep.append(None)
    missing = iter(sorted(set(range(1, n + 1)) - seen))
    return tuple(label if label is not None else next(missing) for label in keep)


@dataclass(frozen=True)
class CodebookEntry:
    """One double-bit value with Sonai's ordering ``s_j``: Sonai's position p
    holds the partner of Bob's position ``s_j[p - 1]`` (positions 1-based)."""

    bits: tuple[int, int]
    s_j: tuple[int, ...]

    @cached_property
    def partner_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based partner positions bob -> sonai and sonai -> bob as index arrays,
        built once per entry and shared by every receiver and replay that uses
        it. Raises ValueError when ``s_j`` is not a permutation of 1..n."""
        n = len(self.s_j)
        try:  # a bool, say from a direct make_entry, is refused, not read as 0 or 1
            to_bob = np.array(self.s_j if set(map(type, self.s_j)) <= {int} else (),
                              dtype=np.intp) - 1
        except OverflowError:  # a label beyond any index
            to_bob = np.empty(0, dtype=np.intp)
        # a label of another type leaves no map, one out of range a map off
        # 0..n-1 and a repeated one a map that is not onto: either way the
        # sorted map is not 0..n-1, which is the range check
        to_sonai = np.argsort(to_bob)
        if not np.array_equal(to_bob[to_sonai], np.arange(n)):
            raise ValueError(f"entry {self.bits}: s_j is not a permutation of 1..{n}")
        return to_sonai, to_bob


def effective_distance(candidate: CodebookEntry, truth: CodebookEntry) -> int:
    """Number of independent binary constraints a wrong candidate must luck
    through on a full noiseless transcript.

    With sigma = truth^-1 o candidate, the candidate's checks force the
    sender-side outcomes to be constant on each sigma-cycle inside the
    mismatch set; each cycle of length L contributes L - 1 constraints, so
    the distance is |mismatch| - (#cycles on the mismatch set) and the
    survive-by-chance probability is exactly 2**(-distance).
    """
    if len(candidate.s_j) != len(truth.s_j):
        raise CodebookError(f"ordering lengths differ: {len(candidate.s_j)} vs {len(truth.s_j)}")
    _, excess = _cycle_labels(truth.partner_arrays[1][candidate.partner_arrays[0]])
    return int(excess[excess < len(excess)].sum())  # unused cycle numbers hold n


def make_entry(bits: tuple[int, int], s_j: Sequence[int]) -> CodebookEntry:
    if tuple(bits) not in BIT_PAIR_ORDER:
        raise ValueError(f"bits must be a pair over 0/1, got {bits!r}")
    return CodebookEntry(bits=(int(bits[0]), int(bits[1])), s_j=tuple(s_j))


def _cycle_labels(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cycle of each position, length - 1 of each cycle) of ``perm``: pointer
    doubling numbers a cycle by its smallest position; unused numbers get n."""
    label, step = np.arange(len(perm)), perm
    for _ in range(len(perm).bit_length()):
        label, step = np.minimum(label, label[step]), step[step]
    length = np.bincount(label, minlength=len(perm))
    return label, np.where(length > 0, length - 1, len(perm))


@dataclass(frozen=True)
class Codebook:
    """Four entries, one per double-bit value, pairwise separated by ``lam``.
    ``cycles`` builds and caches all a survival rank needs of an entry pair."""

    n: int
    lam: int
    entries: tuple[CodebookEntry, ...]

    @cached_property
    def _cycle_table(self) -> tuple[np.ndarray, np.ndarray, list, set]:
        """(labels, excess, distance, built): ``cycles`` of the entry pairs
        in ``built`` and their effective distances, in row i * entries + j
        for candidate i and reference j, each written by ``_pair``."""
        shape = (len(self.entries) ** 2, self.n)
        return (np.empty(shape, dtype=np.intp), np.empty(shape, dtype=np.intp),
                [None] * shape[0], set())

    def _pair(self, p: int) -> int:
        """Row p of the cycle table, built on first use with its mirror: the
        map of (j, i) is the inverse of the map of (i, j), which has the same
        cycles. The pair's effective distance is its excess sum, since
        ``effective_distance`` labels the same map."""
        labels, excess, distance, built = self._cycle_table
        if p not in built:
            a, b = divmod(p, len(self.entries))
            mirror = b * len(self.entries) + a
            to, back = self.entries[a].partner_arrays[0], self.entries[b].partner_arrays[1]
            labels[p], excess[p] = labels[mirror], excess[mirror] = _cycle_labels(back[to])
            # unused cycle numbers hold n
            distance[p] = distance[mirror] = int(excess[p][excess[p] < self.n].sum())
            built.update((p, mirror))
        return p

    @cached_property
    def bit_pair_order(self) -> tuple[int, ...]:
        """Entry indices in ``BIT_PAIR_ORDER``, however the book lists them:
        the order decoding reads and tie-breaks the entries in."""
        return tuple(sorted(range(len(self.entries)),
                            key=lambda i: BIT_PAIR_ORDER.index(self.entries[i].bits)))

    @cached_property
    def partner_index(self) -> np.ndarray:
        """(entries, n): each entry's bob -> sonai partner positions, for
        gathers over whole tables."""
        return np.stack([entry.partner_arrays[0] for entry in self.entries])

    def cycles(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """``(labels, excess)`` for candidate entry i and reference entry j, in
        bob's positions: ``labels[k]`` numbers the cycle of k under pi =
        ref.from_sonai o cand.to_sonai, and ``excess[c]`` is the length of
        cycle c minus one (0 for a fixed point). The candidate's partner map
        carries each cycle of sonai's own pi onto one of bob's pi^-1, so a
        rank is equal from either side. i and j may also be index arrays of
        one shape, for one (..., n) row per pair. Each pair is built on its
        first use (``_pair``)."""
        labels, excess, _, built = self._cycle_table
        pair = np.multiply(i, len(self.entries)) + j
        for p in set(np.ravel(pair).tolist()) - built:
            self._pair(p)
        return labels[pair], excess[pair]

    def entry_for_bits(self, bob_bit: int, sonai_bit: int) -> CodebookEntry:
        for entry in self.entries:
            if entry.bits == (bob_bit, sonai_bit):
                return entry
        raise CodebookError(f"no entry for bits ({bob_bit}, {sonai_bit})")

    def _distance(self, i: int, j: int) -> int:
        """Effective distance of entries i and j, from the cycle table:
        validation, ``pairwise_distances``, the reports and the decode all
        read the one table, so a book builds each pair's cycles once."""
        return self._cycle_table[2][self._pair(i * len(self.entries) + j)]

    def pairwise_distances(self) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
        """Effective distance of every entry pair; every ordering must be valid."""
        return {
            (self.entries[i].bits, self.entries[j].bits): self._distance(i, j)
            for i, j in itertools.combinations(range(len(self.entries)), 2)
        }


def generate_codebook(n: int, lam: int, rng: np.random.Generator) -> Codebook:
    """Draw four receiver-side orderings by rejection until all six pairwise
    effective distances reach ``lam``.

    Raises CapacityError once ``MAX_REJECTIONS`` candidate orderings have been
    rejected, which is how impossible requests (small n, large lam) surface.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if lam < 1:
        raise ValueError(f"lam must be at least 1, got {lam}")
    if lam > n - 1:
        # d = |mismatch| - cycles caps at n - 1, so the request can never be met
        raise CapacityError(
            f"distance {lam} is impossible at n={n}: the effective distance "
            f"between two orderings of {n} labels never exceeds {n - 1}; "
            f"raise n or lower the distance floor"
        )
    entries: list[CodebookEntry] = []
    rejections = 0
    for bits in BIT_PAIR_ORDER:
        while True:
            entry = make_entry(bits, (rng.permutation(n) + 1).tolist())
            if all(effective_distance(entry, q) >= lam for q in entries):
                entries.append(entry)
                break
            rejections += 1
            if rejections >= MAX_REJECTIONS:
                raise CapacityError(
                    f"gave up after {rejections} rejections: n={n} cannot hold four "
                    f"orderings at pairwise distance >= {lam}"
                )
    return Codebook(n=n, lam=lam, entries=tuple(entries))


def validate_codebook(cb: Codebook) -> list[Defect]:
    """All defects that keep ``cb`` from being usable; empty means valid."""
    defects: list[Defect] = []
    bits_seen = [entry.bits for entry in cb.entries]
    if sorted(bits_seen) != sorted(BIT_PAIR_ORDER):
        defects.append(
            Defect("bits", f"entries must cover exactly {list(BIT_PAIR_ORDER)}, got {bits_seen}")
        )
    valid: list[int] = []
    for i, entry in enumerate(cb.entries):
        with contextlib.suppress(ValueError):  # the one check of a valid ordering
            if len(entry.partner_arrays[1]) == cb.n:
                valid.append(i)
                continue
        for d in validate_sequence(entry.s_j, cb.n):  # describes what was refused
            defects.append(Defect(d.kind, f"entry {entry.bits} s_j: {d.message}", d.labels))
    for i, j in itertools.combinations(valid, 2):
        d = cb._distance(i, j)
        if d < cb.lam:
            a, b = cb.entries[i], cb.entries[j]
            defects.append(
                Defect(
                    "distance",
                    f"entries {a.bits} and {b.bits} are at effective distance {d} < {cb.lam}",
                )
            )
    return defects


# The classic 8-pair worked example used throughout the tests and demos.
# The fourth ordering as displayed in its source is defective (labels 5 and 3
# appear twice, 6 and 7 never); reference_codebook() carries the repaired
# form, which is what repair_sequence() produces from the raw display.
REFERENCE_RAW_FOURTH: tuple[int, ...] = (5, 3, 8, 2, 5, 1, 3, 4)

_REFERENCE_DOCUMENT = {
    "version": CODEBOOK_FORMAT_VERSION,
    "n": 8,
    "lambda": 4,
    "entries": [
        {"bits": [0, 0], "s_j": [2, 6, 7, 1, 5, 8, 4, 3]},
        {"bits": [1, 1], "s_j": [1, 3, 7, 5, 2, 4, 8, 6]},
        {"bits": [0, 1], "s_j": [6, 1, 2, 4, 3, 7, 5, 8]},
        {"bits": [1, 0], "s_j": [5, 3, 8, 2, 6, 1, 7, 4]},
    ],
}


def reference_codebook() -> Codebook:
    """Small built-in codebook (n=8, min pairwise distance 4)."""
    return codebook_from_document(_REFERENCE_DOCUMENT)


def codebook_to_document(cb: Codebook) -> dict:
    """JSON-ready document; the identity sender ordering stays implicit."""
    return {
        "version": CODEBOOK_FORMAT_VERSION,
        "n": cb.n,
        "lambda": cb.lam,
        "entries": [
            {"bits": list(entry.bits), "s_j": list(entry.s_j)} for entry in cb.entries
        ],
    }


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; floats, strings and bools raise
    TypeError, which the document parser reports as malformed input."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_ints(values, name: str) -> list[int]:
    """``values`` if it is a JSON array of integers, checked in one pass;
    otherwise ``_json_int`` finds and names the first value that is not one."""
    if type(values) is list and set(map(type, values)) <= {int}:
        return values
    return [_json_int(x, name) for x in values]


def codebook_from_document(doc: dict) -> Codebook:
    """Parse and validate a codebook document. A defective book raises a
    CodebookError that lists its defects; an unreadable one lists none."""
    try:
        version = _json_int(doc["version"], "version")
        if version != CODEBOOK_FORMAT_VERSION:
            raise CodebookError(f"unsupported codebook version: {version}")
        n = _json_int(doc["n"], "n")
        lam = _json_int(doc["lambda"], "lambda")
        if n < 1:
            raise CodebookError(f"n must be at least 1, got {n}")
        if lam < 1:
            raise CodebookError(f"lambda must be at least 1, got {lam}")
        orderings = [_json_ints(e["s_j"], "label") for e in doc["entries"]]
        # lengths first: validating the entries costs O(n), and n is untrusted
        for idx, s_j in enumerate(orderings):
            if len(s_j) != n:
                raise CodebookError(f"entry {idx}: expected {n} labels, got {len(s_j)}")
        entries = tuple(  # make_entry takes exactly two bits
            make_entry(tuple(_json_int(b, "bit") for b in e["bits"]), s_j)
            for e, s_j in zip(doc["entries"], orderings)
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CodebookError(f"malformed codebook document: {exc}") from exc
    cb = Codebook(n=n, lam=lam, entries=entries)
    defects = validate_codebook(cb)
    if defects:
        raise CodebookError(
            "codebook has defects: " + "; ".join(d.message for d in defects), defects
        )
    return cb


def save_codebook(cb: Codebook, path: str | Path) -> None:
    Path(path).write_text(json.dumps(codebook_to_document(cb), indent=2, sort_keys=True) + "\n")


def load_codebook(path: str | Path) -> Codebook:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad, undecodable, too long or too deep
        raise CodebookError(f"codebook file is not valid JSON: {exc}") from exc
    return codebook_from_document(doc)


def resolve_codebook(source: str | None, n: int, lam: int, seed: int) -> Codebook:
    """The codebook a run uses. ``None`` generates one from ``seed``,
    ``"reference"`` is the built-in book, anything else is a JSON path; a
    named book must match (n, lam)."""
    if source is None:
        return generate_codebook(n, lam, rng_mod.substream(seed, rng_mod.KEY_CODEBOOK))
    cb = reference_codebook() if source == "reference" else load_codebook(source)
    if (cb.n, cb.lam) != (n, lam):
        raise ValueError(
            f"codebook (n={cb.n}, lambda={cb.lam}) does not match n={n}, lambda={lam}"
        )
    return cb


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def sequence_to_letters(labels: Iterable[int]) -> str:
    """Labels to their letter display form: 1=A, 2=B, ... (n <= 26)."""
    order = tuple(labels)
    if any(not 1 <= x <= 26 for x in order):
        raise CodebookError("letter display form needs labels within 1..26")
    return "".join(_LETTERS[x - 1] for x in order)
