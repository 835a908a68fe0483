"""Codebook construction, distances, validation, and the worked values the
rest of the suite leans on. Expected numbers here were frozen from the
brute-force model in oracle.py before the library existed."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from entpost.codebook import (
    BIT_PAIR_ORDER,
    CapacityError,
    Codebook,
    CodebookError,
    REFERENCE_RAW_FOURTH,
    SequenceCode,
    codebook_from_document,
    codebook_to_document,
    effective_distance,
    generate_codebook,
    load_codebook,
    make_entry,
    mismatch_set,
    reference_codebook,
    relative_pairing,
    repair_sequence,
    save_codebook,
    sequence_from_letters,
    sequence_to_letters,
    survival_probability,
    validate_codebook,
    validate_sequence,
)
from entpost.rng import substream

from json_junk import JUNK
from oracle import survival_count

# counterpart orderings of the built-in 8-pair codebook
SJ = {
    (0, 0): (2, 6, 7, 1, 5, 8, 4, 3),
    (1, 1): (1, 3, 7, 5, 2, 4, 8, 6),
    (0, 1): (6, 1, 2, 4, 3, 7, 5, 8),
    (1, 0): (5, 3, 8, 2, 6, 1, 7, 4),
}

# pairing maps worked out by hand from the orderings above
EXPECTED_MAPS = {
    (0, 0): (4, 1, 8, 7, 5, 2, 3, 6),
    (1, 1): (1, 5, 2, 6, 4, 8, 3, 7),
    (0, 1): (2, 3, 5, 4, 7, 1, 6, 8),
    (1, 0): (6, 4, 2, 8, 1, 5, 7, 3),
}

EXPECTED_DISTANCES = {
    frozenset({(0, 0), (1, 1)}): 4,
    frozenset({(0, 0), (0, 1)}): 7,
    frozenset({(0, 0), (1, 0)}): 7,
    frozenset({(1, 1), (0, 1)}): 7,
    frozenset({(1, 1), (1, 0)}): 5,
    frozenset({(0, 1), (1, 0)}): 6,
}


def identity(n):
    return tuple(range(1, n + 1))


def test_relative_pairing_of_equal_sequences_is_identity():
    for n in (1, 2, 5, 8):
        p = relative_pairing(identity(n), identity(n))
        assert p.mapping == identity(n)


def test_reference_pairing_maps():
    for bits, sj in SJ.items():
        p = relative_pairing(identity(8), sj)
        assert p.mapping == EXPECTED_MAPS[bits], bits


def test_pairing_inverse_round_trip():
    p = relative_pairing(identity(8), SJ[(0, 0)])
    inv = p.inverse()
    for k in range(1, 9):
        assert inv.position(p.position(k)) == k


def test_mismatch_set_for_first_two_entries():
    a = relative_pairing(identity(8), SJ[(0, 0)])
    b = relative_pairing(identity(8), SJ[(1, 1)])
    assert mismatch_set(a, b) == {1, 2, 3, 4, 5, 6, 8}


def test_effective_distances_match_frozen_table():
    pairings = {bits: relative_pairing(identity(8), sj) for bits, sj in SJ.items()}
    for pair, expected in EXPECTED_DISTANCES.items():
        a, b = sorted(pair)
        assert effective_distance(pairings[a], pairings[b]) == expected


def test_effective_distance_agrees_with_brute_force_oracle():
    # the library's cycle count against plain 2^n enumeration, all pairs
    pairings = {bits: relative_pairing(identity(8), sj) for bits, sj in SJ.items()}
    for t, c in itertools.permutations(SJ, 2):
        d = effective_distance(pairings[t], pairings[c])
        assert survival_count(SJ[t], SJ[c]) == 2 ** (8 - d)


def test_survival_probability_is_two_to_minus_distance():
    a = relative_pairing(identity(8), SJ[(0, 0)])
    b = relative_pairing(identity(8), SJ[(1, 1)])
    assert survival_probability(a, b) == 2.0 ** -4


@settings(max_examples=150)
@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_effective_distance_is_symmetric(sa, sb):
    a = relative_pairing(identity(6), tuple(sa))
    b = relative_pairing(identity(6), tuple(sb))
    assert effective_distance(a, b) == effective_distance(b, a)


@settings(max_examples=60)
@given(
    st.permutations(list(range(1, 7))),
    st.permutations(list(range(1, 7))),
    st.permutations(list(range(1, 7))),
)
def test_effective_distance_survives_relabeling(sa, sb, relabel):
    # renaming the underlying pair labels consistently changes nothing
    a0 = relative_pairing(identity(6), tuple(sa))
    b0 = relative_pairing(identity(6), tuple(sb))
    ra = tuple(relabel[x - 1] for x in sa)
    rb = tuple(relabel[x - 1] for x in sb)
    a1 = relative_pairing(tuple(relabel), ra)
    b1 = relative_pairing(tuple(relabel), rb)
    assert effective_distance(a0, b0) == effective_distance(a1, b1)


@settings(max_examples=100)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_small_survival_counts_match_oracle(sa, sb):
    a = relative_pairing(identity(5), tuple(sa))
    b = relative_pairing(identity(5), tuple(sb))
    d = effective_distance(a, b)
    assert survival_count(tuple(sa), tuple(sb)) == 2 ** (5 - d)


# -- sequence validation and repair ------------------------------------------


def test_validate_sequence_accepts_permutations():
    assert validate_sequence((2, 6, 7, 1, 5, 8, 4, 3), 8) == []


def test_validate_sequence_reports_duplicates_and_missing():
    defects = validate_sequence(REFERENCE_RAW_FOURTH, 8)
    kinds = {d.kind for d in defects}
    assert "duplicate-label" in kinds
    assert "missing-label" in kinds
    duplicated = {lbl for d in defects if d.kind == "duplicate-label" for lbl in d.labels}
    missing = {lbl for d in defects if d.kind == "missing-label" for lbl in d.labels}
    assert duplicated == {3, 5}
    assert missing == {6, 7}


def test_validate_sequence_reports_range_and_length():
    assert any(d.kind == "bad-label" for d in validate_sequence((0, 1, 2), 3))
    assert any(d.kind == "bad-label" for d in validate_sequence((1, 2, 9), 3))
    assert any(d.kind == "length" for d in validate_sequence((1, 2), 3))


def test_repair_keeps_first_appearances_and_fills_ascending():
    assert repair_sequence(REFERENCE_RAW_FOURTH, 8).order == (5, 3, 8, 2, 6, 1, 7, 4)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=6, max_size=6))
def test_repair_always_yields_a_permutation(raw):
    fixed = repair_sequence(tuple(raw), 6).order
    assert sorted(fixed) == list(range(1, 7))
    # first appearance of every in-range label is kept in place
    seen = set()
    for i, label in enumerate(raw):
        if 1 <= label <= 6 and label not in seen:
            seen.add(label)
            assert fixed[i] == label


def test_letter_round_trip():
    assert sequence_to_letters((5, 3, 8, 2, 6, 1, 7, 4)) == "ECHBFAGD"
    assert sequence_from_letters("ECHBFAGD").order == (5, 3, 8, 2, 6, 1, 7, 4)
    assert sequence_from_letters(sequence_to_letters(identity(8))).order == identity(8)


# -- whole codebooks ----------------------------------------------------------


def test_reference_codebook_is_clean():
    cb = reference_codebook()
    assert cb.n == 8
    assert cb.lam == 4
    assert validate_codebook(cb) == []
    assert tuple(e.bits for e in cb.entries) == BIT_PAIR_ORDER
    for bits, sj in SJ.items():
        assert cb.entry_for_bits(*bits).s_j.order == sj


def test_reference_pairwise_distances():
    cb = reference_codebook()
    dist = cb.pairwise_distances()
    assert min(dist.values()) == 4
    for (a, b), d in dist.items():
        assert d == EXPECTED_DISTANCES[frozenset({a, b})]


def test_generate_codebook_meets_distance_floor():
    cb = generate_codebook(16, 6, substream(4, 1))
    assert validate_codebook(cb) == []
    assert min(cb.pairwise_distances().values()) >= 6
    assert len(cb.entries) == 4


def test_generate_codebook_is_deterministic():
    a = generate_codebook(12, 4, substream(9, 1))
    b = generate_codebook(12, 4, substream(9, 1))
    assert a == b


def test_generate_codebook_capacity_error():
    # distance can never exceed n, so lam > n must fail fast
    with pytest.raises(CapacityError):
        generate_codebook(4, 5, substream(1, 1), max_attempts=50)


def test_make_entry_rejects_bad_bits():
    with pytest.raises(ValueError):
        make_entry((0, 2), identity(4), 4)


def test_entry_with_defective_sequence_has_no_pairing():
    entry = make_entry((0, 0), (1, 1, 3, 3), 4)
    assert entry.pairing is None


def test_save_load_round_trip(tmp_path):
    cb = generate_codebook(10, 4, substream(6, 1))
    path = tmp_path / "book.json"
    save_codebook(cb, path)
    assert load_codebook(path) == cb
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["n"] == 10
    assert doc["lambda"] == 4


def test_document_round_trip():
    cb = reference_codebook()
    assert codebook_from_document(codebook_to_document(cb)) == cb


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CodebookError):
        load_codebook(path)
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(CodebookError):
        load_codebook(path)
    # malformed numbers: no crash on infinities, no coercion of floats,
    # strings or bools, exactly two bits per entry
    ref = codebook_to_document(reference_codebook())
    coerced = json.loads(json.dumps(ref))
    coerced["n"] = 8.9
    coerced["entries"][0]["s_j"][:2] = [2.7, "6"]
    extra_bit = json.loads(json.dumps(ref))
    extra_bit["entries"][3]["bits"] = [True, False, 7]
    three_bits = json.loads(json.dumps(ref))
    three_bits["entries"][3]["bits"] = [1, 0, 0]
    one_bit = json.loads(json.dumps(ref))
    one_bit["entries"][3]["bits"] = [1]
    for doc in (
        {**ref, "n": math.inf},
        {**ref, "lambda": math.nan},
        {**ref, "lambda": 0},
        {**ref, "version": True},
        coerced,
        extra_bit,
        three_bits,
        one_bit,
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookError):
            load_codebook(path, validate=False)
    path.write_text(json.dumps(ref).replace('"lambda": 4', '"lambda": ' + "4" * 5000))
    with pytest.raises(CodebookError):
        load_codebook(path)


def test_document_lengths_are_checked_before_any_size_n_work(monkeypatch):
    def refuse(cls, n):
        raise AssertionError(f"built an identity ordering of size {n}")

    doc = codebook_to_document(reference_codebook())
    monkeypatch.setattr(SequenceCode, "identity", classmethod(refuse))
    for n in (10**9, 0):
        doc["n"] = n
        with pytest.raises(CodebookError):
            codebook_from_document(doc)
        with pytest.raises(CodebookError):
            codebook_from_document(doc, validate=False)


def _slots(doc):
    """Every (container, key) of a codebook document that holds a value."""
    slots = [(doc, key) for key in doc]
    for entry in doc["entries"]:
        slots += [(entry, "bits"), (entry, "s_j")]
        slots += [(entry[key], i) for key in ("bits", "s_j") for i in range(len(entry[key]))]
    return slots


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_document_parser_raises_only_codebook_errors(data, validate):
    doc = codebook_to_document(reference_codebook())
    slots = _slots(doc)
    picks = data.draw(st.sets(st.integers(0, len(slots) - 1), min_size=1, max_size=3))
    for index in sorted(picks, reverse=True):  # inner slots first
        container, key = slots[index]
        container[key] = data.draw(JUNK)
    try:
        codebook_from_document(json.loads(json.dumps(doc)), validate=validate)
    except CodebookError:
        pass


def test_validate_codebook_flags_low_distance():
    # two entries sharing a sequence have distance zero
    e = make_entry((0, 0), SJ[(0, 0)], 8)
    f = make_entry((1, 1), SJ[(0, 0)], 8)
    g = make_entry((0, 1), SJ[(0, 1)], 8)
    h = make_entry((1, 0), SJ[(1, 0)], 8)
    cb = Codebook(n=8, lam=4, entries=(e, f, g, h))
    kinds = {d.kind for d in validate_codebook(cb)}
    assert "distance" in kinds


def test_validate_codebook_flags_missing_bits():
    e = make_entry((0, 0), SJ[(0, 0)], 8)
    cb = Codebook(n=8, lam=4, entries=(e,))
    kinds = {d.kind for d in validate_codebook(cb)}
    assert "bits" in kinds
