"""The exact wrong-entry survival law under noise (oracle.noisy_survival):
checked against brute force, against the noiseless law 2^-d, and against
the survival rates soundness batches draw through the noise rule; and the
noisy abort law of the true entry (oracle.true_entry_elimination) against
the block decode's alive mask."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from entpost.codebook import Codebook, effective_distance, make_entry, resolve_codebook
from entpost.montecarlo import ExperimentSpec, run_experiment
from entpost.protocol import ProtocolConfig, alice_prepare, decode_block

from oracle import (cycle_lengths, noisy_survival, noisy_violation_enumerated,
                    noisy_violation_law, survival_count, true_entry_elimination)


def table_cycle_lengths(cb: Codebook, i: int, j: int) -> list[int]:
    """Cycle lengths of pi for candidate i against true entry j, read from
    the book's own cycle table."""
    labels, _ = cb.cycles(i, j)
    return sorted(Counter(labels.tolist()).values())


def pair_book(truth_sj, cand_sj) -> Codebook:
    return Codebook(n=len(truth_sj), lam=1,
                    entries=(make_entry((0, 0), truth_sj), make_entry((1, 1), cand_sj)))


# every ordering pair at n = 3, then samples up to n = 6
ENUMERATED = list(itertools.product(itertools.permutations(range(1, 4)), repeat=2)) + [
    ((1, 2, 3, 4), (2, 1, 4, 3)),
    ((2, 4, 1, 3), (1, 2, 3, 4)),
    ((3, 1, 2, 5, 4), (1, 2, 3, 4, 5)),
    ((5, 4, 3, 2, 1), (2, 3, 4, 5, 1)),
    ((2, 3, 1, 5, 6, 4), (1, 2, 3, 4, 5, 6)),
]


@pytest.mark.parametrize("truth_sj, cand_sj", ENUMERATED,
                         ids=["".join(map(str, t)) + "-" + "".join(map(str, c)) for t, c in ENUMERATED])
def test_noisy_law_equals_enumeration(truth_sj, cand_sj):
    n = len(truth_sj)
    lengths = cycle_lengths(truth_sj, cand_sj)
    assert sorted(lengths) == table_cycle_lengths(pair_book(truth_sj, cand_sj), 1, 0)
    for eps in ((0.0, 0.1, 0.35) if n <= 5 else (0.1,)):
        law = noisy_violation_law(lengths, eps)
        enumerated = noisy_violation_enumerated(truth_sj, cand_sj, eps)
        assert len(law) == len(enumerated) == n + 1
        assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15) for a, b in zip(law, enumerated))
        for delta in (0.0, 0.2, 0.34, 0.49):
            survived = sum(p for v, p in enumerate(enumerated) if v <= delta * n)
            assert math.isclose(noisy_survival(lengths, eps, delta), survived,
                                rel_tol=1e-9, abs_tol=1e-15)


def test_noiseless_law_is_two_to_minus_distance():
    for n in (1, 2, 3, 4):
        for truth_sj, cand_sj in itertools.product(itertools.permutations(range(1, n + 1)), repeat=2):
            d = effective_distance(make_entry((0, 0), truth_sj), make_entry((1, 1), cand_sj))
            lengths = cycle_lengths(truth_sj, cand_sj)
            assert noisy_survival(lengths, 0.0, 0.0) == 2.0**-d
            assert survival_count(truth_sj, cand_sj) == 2 ** (n - d)


@pytest.mark.parametrize("n, lam, eps, delta, seed", [(16, 6, 0.15, 0.35, 1), (32, 8, 0.2, 0.4, 2)])
def test_soundness_survival_follows_the_noisy_law(n, lam, eps, delta, seed):
    # generated books, noise drawn by the block noise rule for 20k trials;
    # wrong-entry survival moves little with eps, so the flip rates are
    # high enough that a noise draw 20% too low fails the n = 16 case
    trials = 20000
    spec = ExperimentSpec(mode="soundness", n=n, lam=lam, noise=eps, delta=delta, seed=seed,
                          trials=trials, bits=(0, 0))
    _, report = run_experiment(spec)
    cb = spec.shared_codebook()
    truth = [entry.bits for entry in cb.entries].index((0, 0))
    for i, entry in enumerate(cb.entries):
        if i == truth:
            continue
        p = noisy_survival(table_cycle_lengths(cb, i, truth), eps, delta)
        rate = report.survival_rates[f"{entry.bits[0]}{entry.bits[1]}"]
        assert 0.01 < p < 0.5  # a law that the run can tell apart from 0
        assert abs(rate - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials), (entry.bits, rate, p)


@pytest.mark.parametrize("n, lam, eps, delta", [(16, 6, 0.05, 0.3), (32, 8, 0.1, 0.35),
                                                (64, 16, 0.1, 0.25)])
def test_the_true_entry_dies_at_the_noisy_abort_law(n, lam, eps, delta):
    # the true entry's column of the block decode's alive mask, over 20k
    # tables drawn by alice_prepare; its elimination moves with eps far more
    # than wrong-entry survival does, so a noise draw 20% too low (eps
    # 0.8 eps) lands 10 to 29 standard deviations off in these cases
    trials, block = 20000, 2000  # blocks bound the noise draw's temporaries
    cb = resolve_codebook(None, n, lam, n)
    config = ProtocolConfig(n=n, lam=lam, noise=eps, delta=delta)
    truth = [entry.bits for entry in cb.entries].index((0, 0))
    dead = 0
    for start in range(0, trials, block):
        tables = alice_prepare(list(range(start, start + block)), eps, [(0, 0)] * block, cb)
        _, _, alive = decode_block(cb, config, tables)
        dead += block - np.count_nonzero(alive[:, truth])
    p = true_entry_elimination(n, eps, delta)
    assert 0.005 < p < 0.1  # a law that the run can tell apart from 0
    assert abs(dead / trials - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials), (dead / trials, p)
