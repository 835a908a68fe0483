#!/usr/bin/env python3
"""Codebook plumbing: inspect the built-in book, break it, repair it, grow one.

The decoder's whole margin comes from the pairwise effective distance between
the four receiver-side orderings, so this demo prints those distances for
every book it touches.
"""

from entpost import (
    BIT_PAIR_ORDER,
    generate_codebook,
    reference_codebook,
    repair_sequence,
    validate_codebook,
    validate_sequence,
)
from entpost.codebook import (
    REFERENCE_RAW_FOURTH,
    codebook_from_document,
    codebook_to_document,
    sequence_to_letters,
)
from entpost.rng import substream


def show(cb, title):
    print(title)
    for entry in cb.entries:
        letters = sequence_to_letters(entry.s_j) if cb.n <= 26 else "(n > 26)"
        print(f"  {entry.bits[0]}{entry.bits[1]} -> {letters}  {entry.s_j}")
    dists = cb.pairwise_distances()
    floor = min(dists.values())
    print(f"  pairwise distances: " + ", ".join(
        f"d({a[0]}{a[1]},{b[0]}{b[1]})={d}" for (a, b), d in sorted(dists.items())
    ))
    print(f"  distance floor: {floor} (wrong entry survives a full noiseless "
          f"transcript with probability at most 2^-{floor})")
    print()


def main():
    cb = reference_codebook()
    show(cb, "built-in 8-pair book")

    # sneak a defective ordering in: one label twice, two labels absent
    raw = REFERENCE_RAW_FOURTH
    print(f"a defective receiver ordering: {sequence_to_letters(raw)}  {raw}")
    for defect in validate_sequence(list(raw), 8):
        print(f"  defect: {defect.kind}: {defect.message}")
    fixed = repair_sequence(list(raw), 8)
    print(f"  repaired to: {sequence_to_letters(fixed)}  {fixed}")
    print()

    # a full book with that raw ordering fails validation with both kinds
    doc = codebook_to_document(cb)
    doc["entries"][3]["s_j"] = list(raw)
    broken = codebook_from_document(doc, validate=False)
    kinds = sorted({d.kind for d in validate_codebook(broken)})
    print(f"validating the book that contains it reports kinds: {kinds}")
    print()

    # production-size book by rejection sampling
    big = generate_codebook(64, 16, substream(1, 1))
    dists = sorted(big.pairwise_distances().values())
    print(f"generated n=64 book: distance floor requested 16, achieved {dists[0]}")
    print(f"all six distances: {dists}")
    for bits in BIT_PAIR_ORDER:
        head = big.entry_for_bits(*bits).s_j[:10]
        print(f"  {bits[0]}{bits[1]} starts {list(head)} ...")


if __name__ == "__main__":
    main()
