#!/usr/bin/env python3
"""What each canned adversary does to a session, and what the pacing rule
buys the honest side.

Four strategies against an honest counterpart on one small codebook,
then a sweep of withholding cheaters to show two things at once: the
honest party never runs more than one reveal ahead, and at the moment of
the abort neither side knows meaningfully more than the other (the
per-candidate evidence differs by at most one check, so survival odds
differ by at most one power of two).
"""

from entpost import (
    BatchDump,
    Honest,
    LieWithProb,
    Party,
    ProtocolConfig,
    WithholdAfter,
    fairness_gap,
    reference_codebook,
    run_session,
)

N = 8
CB = reference_codebook()


def one(strategy, seed, timeout=6):
    config = ProtocolConfig(n=N, lam=4, seed=seed, confidence_target=0.9,
                            one_ahead_limit=1, timeout_ticks=timeout)
    return run_session(config, (1, 1), cb=CB, strategies={Party.SONAI: strategy})


def main():
    print(f"honest bob vs scripted sonai, n={N}, bits 11\n")
    print("sonai strategy     status    reason               gap  ticks")
    for strategy in (Honest(), WithholdAfter(3), BatchDump(), LieWithProb(1.0)):
        out = one(strategy, seed=7)
        t = out.terminal
        reason = t.abort_reason.value if t.abort_reason else "-"
        print(
            f"{strategy.describe():18s} {t.status.value:9s} {reason:20s} "
            f"{fairness_gap(out.transcript):3d}  {out.ticks:5d}"
        )

    # the withholding sweep
    print("\n200 sessions against withhold:k, k cycling over 1..6:")
    worst_gap = 0
    worst_evidence = 0
    for i in range(200):
        out = one(WithholdAfter(1 + i % 6), seed=1000 + i)
        assert out.terminal.abort_reason is not None
        worst_gap = max(worst_gap, fairness_gap(out.transcript))
        bob = out.receivers[Party.BOB]
        sonai = out.receivers[Party.SONAI]
        for entry, alive_b, alive_s in zip(CB.entries, bob.alive, sonai.alive):
            if entry.bits != (1, 1) and alive_b and alive_s:
                diff = abs(
                    bob.survival_log2(entry.bits, (1, 1))
                    - sonai.survival_log2(entry.bits, (1, 1))
                )
                worst_evidence = max(worst_evidence, diff)
    print(f"  every one aborted; worst reveal-count gap: {worst_gap}")
    print(f"  worst per-candidate evidence difference: {worst_evidence} bit(s)")
    print("  stopping early never hands either side a usable head start")


if __name__ == "__main__":
    main()
