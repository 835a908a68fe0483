#!/usr/bin/env python3
"""
One small session, reveal by reveal
===================================

Drives a single noiseless session on the built-in 8-pair codebook with the
receivers stepped by hand, so you can watch the candidate sets shrink as the
public reveals accumulate. Alice wants bob to learn 1 and sonai to learn 0,
so she prepares the block under the (1, 0) entry.

Run:  python demos/session_walkthrough.py
"""

import numpy as np

from entpost import (
    Party,
    ProtocolConfig,
    Receiver,
    reference_codebook,
    run_session,
    sample_block,
)
from entpost.protocol import prepared_block_from_signs

SEED = 20240712
BITS = (1, 0)


def alive_bits(receiver):
    entries = receiver.codebook.entries
    return [entry.bits for entry, alive in zip(entries, receiver.alive) if alive]


def fmt(bits_list):
    return "{" + ", ".join(f"{a}{b}" for a, b in bits_list) + "}"


def main():
    cb = reference_codebook()
    config = ProtocolConfig(n=8, lam=4, seed=SEED, confidence_target=0.9)
    rng = np.random.default_rng(SEED)

    # the session table: bob's outcomes, then sonai's, each in its own order
    table = prepared_block_from_signs(cb.entry_for_bits(*BITS), sample_block(cb.n, rng))
    bob = Receiver(Party.BOB, cb, table[0], config)
    sonai = Receiver(Party.SONAI, cb, table[1], config)

    print(f"encoded double bit: {BITS[0]}{BITS[1]}  (bob bit, sonai bit)")
    print(f"bob outcomes:   {' '.join('+' if v > 0 else '-' for v in table[0])}")
    print(f"sonai outcomes: {' '.join('+' if v > 0 else '-' for v in table[1])}")
    print()
    print("round  revealer  pos  val   bob alive            sonai alive")

    # strict alternation, bob opens: round r reveals the speaker's next position
    turn = 0
    for rnd in range(1, 2 * 8 + 1):
        speaker, listener = (bob, sonai) if turn == 0 else (sonai, bob)
        pos = (rnd + 1) // 2
        val = int(table[turn, pos - 1])
        listener.observe_reveal(pos, val)
        sym = "+" if val > 0 else "-"
        print(
            f"{rnd:5d}  {speaker.party.value:8s} {pos:3d}   {sym}    "
            f"{fmt(alive_bits(bob)):20s} {fmt(alive_bits(sonai))}"
        )
        turn ^= 1

    print()
    for receiver in (bob, sonai):
        res = receiver.decode()
        print(
            f"{receiver.party.value} decodes: status={res.status.value} "
            f"bits={res.bob_bit}{res.sonai_bit} confidence={res.confidence:.4f}"
        )

    # the packaged driver draws its own block but must land on the same bits
    outcome = run_session(config, BITS, cb=cb)
    t = outcome.terminal
    print()
    print(
        f"simulator cross-check: {t.status.value} bits={t.bob_bit}{t.sonai_bit} "
        f"confidence={t.confidence:.4f} in {outcome.ticks} ticks"
    )


if __name__ == "__main__":
    main()
