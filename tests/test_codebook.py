"""Codebook construction, distances, validation, and the worked values the
rest of the suite leans on. Expected numbers here were frozen from the
brute-force model in oracle.py before the library existed."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpost.codebook import (
    BIT_PAIR_ORDER,
    CapacityError,
    Codebook,
    CodebookError,
    Defect,
    MAX_REJECTIONS,
    REFERENCE_RAW_FOURTH,
    codebook_from_document,
    codebook_to_document,
    effective_distance,
    generate_codebook,
    load_codebook,
    make_entry,
    reference_codebook,
    repair_sequence,
    save_codebook,
    sequence_to_letters,
    validate_codebook,
    validate_sequence,
)
from entpost import codebook
from entpost.cli import main
from entpost.montecarlo import ExperimentSpec, run_experiment
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

# pairing maps (1-based bob position -> sonai position) worked out by hand
# from the orderings above
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


ENTRIES = {bits: make_entry(bits, sj) for bits, sj in SJ.items()}


def identity(n):
    return tuple(range(1, n + 1))


def test_relative_pairing_of_equal_sequences_is_identity():
    # a receiver ordering equal to the sender's pairs every position with itself
    for n in (1, 2, 5, 8):
        entry = make_entry((0, 0), identity(n))
        assert [side.tolist() for side in entry.partner_arrays] == [list(range(n))] * 2


def test_reference_pairing_maps():
    for bits, entry in ENTRIES.items():
        assert entry.partner_arrays[0].tolist() == [p - 1 for p in EXPECTED_MAPS[bits]], bits


@settings(max_examples=100)
@given(st.integers(0, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_pairing_inverse_round_trip(s_j):
    # the two partner maps are mutual inverses, and sonai -> bob reads s_j
    for entry in (ENTRIES[(0, 0)], make_entry((1, 1), s_j)):
        to_sonai, to_bob = (side.tolist() for side in entry.partner_arrays)
        assert to_bob == [label - 1 for label in entry.s_j]
        for k in range(len(entry.s_j)):
            assert to_bob[to_sonai[k]] == k
            assert to_sonai[to_bob[k]] == k


def test_effective_distances_match_frozen_table():
    for pair, expected in EXPECTED_DISTANCES.items():
        a, b = sorted(pair)
        assert effective_distance(ENTRIES[a], ENTRIES[b]) == expected


def test_effective_distance_agrees_with_brute_force_oracle():
    # the library's cycle count against plain 2^n enumeration, all pairs
    for t, c in itertools.permutations(SJ, 2):
        d = effective_distance(ENTRIES[t], ENTRIES[c])
        assert survival_count(SJ[t], SJ[c]) == 2 ** (8 - d)


@settings(max_examples=150)
@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_effective_distance_is_symmetric(sa, sb):
    a = make_entry((0, 0), sa)
    b = make_entry((1, 1), sb)
    assert effective_distance(a, b) == effective_distance(b, a)


@settings(max_examples=60)
@given(
    st.permutations(list(range(1, 7))),
    st.permutations(list(range(1, 7))),
    st.permutations(list(range(1, 7))),
)
def test_effective_distance_survives_relabeling(sa, sb, relabel):
    # renaming the pair labels consistently in both orderings conjugates
    # sigma = truth^-1 o candidate, which keeps its cycle structure
    ra = tuple(relabel[x - 1] for x in sa)
    rb = tuple(relabel[x - 1] for x in sb)
    assert effective_distance(make_entry((0, 0), sa), make_entry((1, 1), sb)) == (
        effective_distance(make_entry((0, 0), ra), make_entry((1, 1), rb))
    )


@settings(max_examples=60)
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(
    st.permutations(list(range(1, n + 1))), st.permutations(list(range(1, n + 1))))))
def test_effective_distance_matches_a_cycle_walk(orderings):
    # n less the number of cycles of sigma = truth^-1 o candidate, walked
    # one position at a time, from the empty ordering to sizes no
    # enumeration reaches
    truth, cand = make_entry((0, 0), orderings[0]), make_entry((1, 1), orderings[1])
    to_bob, to_sonai = truth.partner_arrays[1].tolist(), cand.partner_arrays[0].tolist()
    sigma = [to_bob[c] for c in to_sonai]
    seen, cycles = set(), 0
    for start in range(len(sigma)):
        cycles += start not in seen
        k = start
        while k not in seen:
            seen.add(k)
            k = sigma[k]
    assert effective_distance(cand, truth) == len(sigma) - cycles


@settings(max_examples=100)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_small_survival_counts_match_oracle(sa, sb):
    d = effective_distance(make_entry((0, 0), sa), make_entry((1, 1), sb))
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
    assert repair_sequence(REFERENCE_RAW_FOURTH, 8) == (5, 3, 8, 2, 6, 1, 7, 4)
    fixed = repair_sequence([True, 2, 3, 4], 4)  # True == 1, but it is no label
    assert fixed == (1, 2, 3, 4) and type(fixed[0]) is int


# orderings of length 0..6 over in-range and out-of-range ints, a bool, a
# float equal to a label and an int too large for any array
ORDERINGS = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.one_of(st.integers(-1, n + 1), st.sampled_from([True, 1.0, 10**30])),
    min_size=n, max_size=n))


@settings(max_examples=200)
@given(ORDERINGS)
def test_repair_always_yields_a_permutation(raw):
    n = len(raw)
    fixed = repair_sequence(tuple(raw), n)
    assert validate_sequence(fixed, n) == []
    # the first appearance of every label validate_sequence accepts is kept in place
    seen = set()
    for i, label in enumerate(raw):
        if type(label) is int and 1 <= label <= n and label not in seen:
            seen.add(label)
            assert fixed[i] == label


def test_letter_round_trip():
    assert sequence_to_letters((5, 3, 8, 2, 6, 1, 7, 4)) == "ECHBFAGD"
    assert sequence_to_letters(iter(identity(8))) == "ABCDEFGH"
    letters = sequence_to_letters(SJ[(1, 0)])
    assert tuple(ord(ch) - ord("A") + 1 for ch in letters) == SJ[(1, 0)]
    with pytest.raises(CodebookError):
        sequence_to_letters((1, 27))


# -- whole codebooks ----------------------------------------------------------


def test_reference_codebook_is_clean():
    cb = reference_codebook()
    assert cb.n == 8
    assert cb.lam == 4
    assert validate_codebook(cb) == []
    assert tuple(e.bits for e in cb.entries) == BIT_PAIR_ORDER
    for bits, sj in SJ.items():
        assert cb.entry_for_bits(*bits).s_j == sj


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
    # distance can never exceed n - 1, so lam > n - 1 must fail fast
    with pytest.raises(CapacityError, match="never exceeds"):
        generate_codebook(4, 5, substream(1, 1))
    # three labels have only six orderings, too few for four at distance 2
    with pytest.raises(CapacityError, match=f"gave up after {MAX_REJECTIONS} rejections"):
        generate_codebook(3, 2, substream(1, 1))


def test_make_entry_rejects_bad_bits():
    with pytest.raises(ValueError):
        make_entry((0, 2), identity(4))


def test_entry_with_defective_sequence_has_no_pairing():
    for s_j in ((1, 1, 3, 3), (0, 1, 2, 3), (1, 2, 3, 5), (True, 2, 3, 4), (1, 2.0, 3, 4),
                (1, 2, 3, 10**30)):
        with pytest.raises(ValueError):
            make_entry((0, 0), s_j).partner_arrays


@settings(max_examples=200)
@given(ORDERINGS)
def test_partner_arrays_refuse_exactly_what_validate_sequence_flags(s_j):
    # the one permutation check and the describer agree on every ordering
    try:
        make_entry((0, 0), s_j).partner_arrays
    except ValueError:
        assert validate_sequence(s_j, len(s_j)) != []
    else:
        assert validate_sequence(s_j, len(s_j)) == []


def test_wrong_length_permutation_is_a_length_defect():
    # a hand-built book gets no length check from the document parser; a
    # permutation of 1..7 in an 8-pair book is still refused
    entries = list(reference_codebook().entries)
    entries[2] = make_entry(entries[2].bits, identity(7))
    defects = validate_codebook(Codebook(n=8, lam=4, entries=tuple(entries)))
    assert [d.kind for d in defects] == ["length", "missing-label"]
    assert defects[0].message == "entry (0, 1) s_j: expected 8 labels, got 7"


def test_loading_a_valid_book_checks_each_ordering_once(monkeypatch, tmp_path):
    # partner_arrays is the one permutation check: validate_sequence only
    # describes an ordering it refused, so a valid book never reaches it
    def refuse(order, n):
        raise AssertionError("validate_sequence ran on a valid ordering")

    documents = [codebook_to_document(reference_codebook()),
                 codebook_to_document(generate_codebook(64, 16, substream(7, 1)))]
    monkeypatch.setattr(codebook, "validate_sequence", refuse)
    for doc in documents:
        path = tmp_path / "book.json"
        path.write_text(json.dumps(doc))
        assert codebook_to_document(load_codebook(path)) == doc


@pytest.mark.parametrize("label", [True, 2.0, "3", None])
@pytest.mark.parametrize("place", [0, 4, 7])
def test_a_bad_label_is_named_wherever_it_sits(label, place):
    # an ordering is checked in one pass; a refused one is scanned label by
    # label, so the error names the first label that is not an integer
    doc = codebook_to_document(reference_codebook())
    doc["entries"][2]["s_j"][place] = label
    doc["entries"][3]["s_j"][-1] = "later"
    with pytest.raises(CodebookError) as refused:
        codebook_from_document(json.loads(json.dumps(doc)))
    assert str(refused.value) == f"malformed codebook document: label must be an integer, got {label!r}"
    assert refused.value.defects == []


def test_a_book_measures_each_pair_once(monkeypatch):
    # validation builds the cycles of the six entry pairs, each with its
    # mirror; the decode, pairwise_distances and the soundness report read
    # them from the book's one table
    calls = []
    label = codebook._cycle_labels
    monkeypatch.setattr(codebook, "_cycle_labels", lambda perm: calls.append(1) or label(perm))
    spec = ExperimentSpec(mode="soundness", n=8, lam=4, codebook="reference", bits=(0, 0),
                          trials=50, seed=3)
    report = run_experiment(spec)[1]
    assert len(calls) == 6
    assert report.survival_by_distance
    cb = reference_codebook()
    assert cb.pairwise_distances() == cb.pairwise_distances()
    assert len(calls) == 12
    # the table reads as the one-pair measure does, from either side
    for i, j in itertools.permutations(range(4), 2):
        assert cb._distance(i, j) == effective_distance(cb.entries[i], cb.entries[j])
        assert all(np.array_equal(a, b) for a, b in zip(cb.cycles(i, j), cb.cycles(j, i)))
    assert len(calls) == 12 + 12


@pytest.mark.parametrize("s_j", [
    [True, 2, 3, 4], [0, 1, 2, 3], [1, 2, 3, 5], [1, 2, 2, 4], [2**70, 1, 2, 3], [-2**63, 1, 2, 3],
], ids=["bool", "zero", "n+1", "repeated", "beyond-intp", "lowest-intp"])
def test_a_direct_entry_that_is_no_permutation_is_refused(s_j):
    # make_entry takes any labels; the partner map refuses them on first use
    entry = make_entry((0, 1), s_j)
    with pytest.raises(ValueError, match=r"^entry \(0, 1\): s_j is not a permutation of 1\.\.4$"):
        entry.partner_arrays


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
        with pytest.raises(CodebookError) as refused:
            load_codebook(path)
        assert refused.value.defects == []  # refused as unreadable, before validation
    path.write_text(json.dumps(ref).replace('"lambda": 4', '"lambda": ' + "4" * 5000))
    with pytest.raises(CodebookError):
        load_codebook(path)


def test_document_lengths_are_checked_before_any_size_n_work(monkeypatch):
    def refuse(order, n):
        raise AssertionError(f"validated an ordering against n={n}")

    doc = codebook_to_document(reference_codebook())
    monkeypatch.setattr(codebook, "validate_sequence", refuse)
    for n in (10**9, 0):
        doc["n"] = n
        with pytest.raises(CodebookError):
            codebook_from_document(doc)


def _slots(doc):
    """Every (container, key) of a codebook document that holds a value."""
    slots = [(doc, key) for key in doc]
    for entry in doc["entries"]:
        slots += [(entry, "bits"), (entry, "s_j")]
        slots += [(entry[key], i) for key in ("bits", "s_j") for i in range(len(entry[key]))]
    return slots


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_document_parser_raises_only_codebook_errors(data):
    doc = codebook_to_document(reference_codebook())
    slots = _slots(doc)
    picks = data.draw(st.sets(st.integers(0, len(slots) - 1), min_size=1, max_size=3))
    for index in sorted(picks, reverse=True):  # inner slots first
        container, key = slots[index]
        container[key] = data.draw(JUNK)
    try:
        codebook_from_document(json.loads(json.dumps(doc)))
    except CodebookError as exc:
        assert isinstance(exc.defects, list)
        assert all(isinstance(d, Defect) for d in exc.defects)


def test_validate_codebook_flags_low_distance():
    # two entries sharing a sequence have distance zero
    e = make_entry((0, 0), SJ[(0, 0)])
    f = make_entry((1, 1), SJ[(0, 0)])
    g = make_entry((0, 1), SJ[(0, 1)])
    h = make_entry((1, 0), SJ[(1, 0)])
    cb = Codebook(n=8, lam=4, entries=(e, f, g, h))
    kinds = {d.kind for d in validate_codebook(cb)}
    assert "distance" in kinds


def test_validate_codebook_flags_missing_bits():
    e = make_entry((0, 0), SJ[(0, 0)])
    cb = Codebook(n=8, lam=4, entries=(e,))
    kinds = {d.kind for d in validate_codebook(cb)}
    assert "bits" in kinds


# -- pinned bytes -------------------------------------------------------------

PINNED_GEN = {  # case -> (n, lambda, seed)
    "n8-l3-s1": (8, 3, 1),
    "n12-l4-s3": (12, 4, 3),
    "n16-l6-s4": (16, 6, 4),
    "n32-l8-s29": (32, 8, 29),
    "n64-l16-s7": (64, 16, 7),
    "n128-l32-s2": (128, 32, 2),
}


def _reference_with(orderings=None, bits=None, drop=None, **fields):
    """The reference document with orderings or bits replaced (each given as
    {entry index: value}), one entry dropped, or top-level fields set."""
    doc = codebook_to_document(reference_codebook())
    for index, s_j in (orderings or {}).items():
        doc["entries"][index]["s_j"] = list(s_j)
    for index, pair in (bits or {}).items():
        doc["entries"][index]["bits"] = list(pair)
    if drop is not None:
        del doc["entries"][drop]
    doc.update(fields)
    return doc


PINNED_VALIDATE = {
    "reference": _reference_with(),
    "raw-fourth": _reference_with(orderings={3: REFERENCE_RAW_FOURTH}),
    "repeated-ordering": _reference_with(orderings={1: SJ[(0, 0)]}),
    "raw-fourth-and-repeated-ordering": _reference_with(
        orderings={1: SJ[(0, 0)], 3: REFERENCE_RAW_FOURTH}
    ),
    "missing-bits": _reference_with(drop=2),
    "duplicated-bits": _reference_with(bits={3: (0, 1)}),
    "wrong-length": _reference_with(orderings={2: SJ[(0, 1)][:7]}),
    "label-out-of-range": _reference_with(orderings={0: (2, 6, 7, 1, 5, 9, 4, 3)}),
    "label-zero": _reference_with(orderings={1: (0, 3, 7, 5, 2, 4, 8, 6)}),
    "lambda-above-floor": _reference_with(**{"lambda": 5}),
    "lambda-at-n": _reference_with(**{"lambda": 8}),
}

PINNED_SURVIVAL = {  # case -> (n, lambda, codebook, trials, seed)
    "n8-reference": (8, 4, "reference", 600, 11),
    "n8-l3-generated": (8, 3, None, 600, 5),
    "n6-l2-generated": (6, 2, None, 400, 3),
}


def _digest(*parts) -> str:
    return hashlib.sha256("\n".join(str(p) for p in parts).encode()).hexdigest()


def pinned_codebook_digest(kind: str, case: str, tmp_path, capsys) -> str:
    """sha256 over one pinned output of the codebook layer: a generated file
    with the command's stdout and exit code, the stdout, stderr and exit code
    of ``codebook validate`` on a document, or a soundness report's
    ``survival_by_distance``."""
    if kind == "gen":
        n, lam, seed = PINNED_GEN[case]
        path = tmp_path / "book.json"
        code = main(["codebook", "gen", "--n", str(n), "--lambda", str(lam),
                     "--seed", str(seed), "--out", str(path)])
        out = capsys.readouterr().out.replace(str(path), "<out>")
        return _digest(code, out, path.read_text())
    if kind == "validate":
        path = tmp_path / "book.json"
        path.write_text(json.dumps(PINNED_VALIDATE[case]))
        code = main(["codebook", "validate", str(path)])
        captured = capsys.readouterr()
        return _digest(code, captured.out, captured.err)
    n, lam, source, trials, seed = PINNED_SURVIVAL[case]
    spec = ExperimentSpec(mode="soundness", n=n, lam=lam, seed=seed, trials=trials, codebook=source)
    _, report = run_experiment(spec)
    return _digest(json.dumps(report.survival_by_distance, sort_keys=True))


PINNED_CODEBOOK_CASES = (
    [("gen", case) for case in PINNED_GEN]
    + [("validate", case) for case in PINNED_VALIDATE]
    + [("survival", case) for case in PINNED_SURVIVAL]
)

# Recorded from the codebook layer as it stood before entries dropped the
# general two-ordering model; every case must keep its bytes.
PINNED_CODEBOOK_DIGESTS = {
    "gen/n8-l3-s1": "c460e8c554a056ba76c4b38930c0a1925820aff4f53c56b683da6ba18c2674a9",
    "gen/n12-l4-s3": "df3b0a130cc1de34293292fcad46ff89617d088aa7027216508594bf45c82356",
    "gen/n16-l6-s4": "167f13569ed8f308eeaa6377dd4d986453a02b0007d579e6c20951470de168b8",
    "gen/n32-l8-s29": "5ef3a9bd479ae4987b9e1fa2362dabfd0cddc226a77a399e784691128d5d694a",
    "gen/n64-l16-s7": "34e0155eadb059a5bfb568d6d84796d8ad143a6458e758836dd2da4c556c07cd",
    "gen/n128-l32-s2": "75d1d27770ae714a3b8886d6109f89dfc3e175980e08600fb5a66bb83c251d80",
    "validate/reference": "0342afa3489883c04f60c52f21a058159cb1bfcbfe1284ff07e7825be6b26805",
    "validate/raw-fourth": "7eb417bdc815e3c9374ec3250e64f3cc292b788c7c9816ee3dd54cb8cb8f1d59",
    "validate/repeated-ordering": "6b8dc5a8eadde4bcb714f3268bdc3841dde368727246ba9a6502a162b453ef59",
    "validate/raw-fourth-and-repeated-ordering": "127d5eddb9c5aca66207bbbd1861df36cd160bfd38f1b8f5c275f108c6e069f3",
    "validate/missing-bits": "099b934d1f0a66273c755ccfc7203dc7e73c006c2695650e45c563e6755f7a84",
    "validate/duplicated-bits": "7d2922a4599b73f6686e3a7d19f2de5f0f16e48507f089190bf9887fe087d24c",
    "validate/wrong-length": "17b3af608e5bbfc74736a6413f35010847f6c3b4c7c1fecccc117da91f8328ca",
    "validate/label-out-of-range": "020729c6f9d34b01cc134e3f4423ce1046ad64cdb931c022111515b91438a106",
    "validate/label-zero": "49e26e291f2ab27c3abe87a309e0a5a92b98507d59db37215406dc7744465687",
    "validate/lambda-above-floor": "a3e43dd33cfdb5f695b2486e07644b168f46b21a2595202a4842cf243cd31630",
    "validate/lambda-at-n": "d46cf649032fd4593527e782dd495db8651f557849d601e896b5c331fe4c2f57",
    "survival/n8-reference": "285d2631e3cdadc5f2b5b5b7a55d19f4259c972a364ca9c92e64a564b6cbca76",
    "survival/n8-l3-generated": "3eb270a6b7de730dc09034464f3f5d606f97036e9f6303b27ceb3868c60123e2",
    "survival/n6-l2-generated": "8159e1059ed02665d5e128f879d03b45f1c14b6931ea5c5b5733e88832ec2eaf",
}


@pytest.mark.parametrize("kind,case", PINNED_CODEBOOK_CASES)
def test_codebook_bytes_are_pinned(kind, case, tmp_path, capsys):
    digest = pinned_codebook_digest(kind, case, tmp_path, capsys)
    assert digest == PINNED_CODEBOOK_DIGESTS[f"{kind}/{case}"]


@pytest.mark.parametrize("case", PINNED_VALIDATE)
def test_load_refusal_lists_what_validate_prints(case, tmp_path, capsys):
    # the library and the command admit a book at the same site: a refusal's
    # defects are the command's lines, and none means unreadable (exit 3)
    path = tmp_path / "book.json"
    path.write_text(json.dumps(PINNED_VALIDATE[case]))
    code = main(["codebook", "validate", str(path)])
    out = capsys.readouterr().out
    try:
        cb = load_codebook(path)
    except CodebookError as exc:
        assert "".join(f"defect: {d.kind}: {d.message}\n" for d in exc.defects) == out
        assert (exc.defects == []) == (code == 3)
        assert code in (1, 3)
    else:
        assert code == 0
        assert out == f"valid: n={cb.n} lambda={cb.lam}, {len(cb.entries)} entries\n"
