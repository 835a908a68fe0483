import numpy as np
import pytest
from hypothesis import given, strategies as st

from entpost.codebook import make_entry, reference_codebook
from entpost.epr import flip_outcomes, sample_block
from entpost.protocol import ProtocolConfig, alice_prepare, prepared_block_from_signs
from entpost.rng import substream

REF = reference_codebook()


def partner_outcomes(table, entry):
    """Sonai's outcome for each of bob's positions, read through the entry's
    pairing: noiseless, the negation of bob's row."""
    return table[1].take(entry.partner_maps[0])


def test_singlet_always_anti_correlated():
    seen = set()
    for seed in range(50):
        for bits in ((0, 0), (1, 1), (0, 1), (1, 0)):
            table, entry = alice_prepare(seed, 0.0, bits, REF), REF.entry_for_bits(*bits)
            assert np.array_equal(table[0], -partner_outcomes(table, entry))
            seen.update(zip(table[0].tolist(), partner_outcomes(table, entry).tolist()))
    # both orientations occur
    assert seen == {(1, -1), (-1, 1)}


def test_singlet_orientation_is_unbiased():
    plus = int(np.sum(sample_block(20000, substream(7, 2)) == 1))
    # 5 sigma band around 10000 (sigma = 0.5 * sqrt(20000) ~= 70.7)
    assert abs(plus - 10000) < 5 * 70.8


def test_noise_model_validation():
    assert ProtocolConfig(noise=0.0).noise == 0.0
    assert ProtocolConfig(noise=0.5).noise == 0.5
    with pytest.raises(ValueError, match=r"flip probability must lie in \[0, 0.5\], got -0.01"):
        ProtocolConfig(noise=-0.01)
    with pytest.raises(ValueError, match=r"flip probability must lie in \[0, 0.5\], got 0.51"):
        ProtocolConfig(noise=0.51)


def test_flip_outcomes_noiseless_is_identity():
    rng = substream(5, 3)
    values = sample_block(50, rng)
    state = rng.bit_generator.state
    assert np.array_equal(flip_outcomes(values, 0.0, rng), values)
    # no draws, so a noiseless run leaves the noise streams untouched
    assert rng.bit_generator.state == state


def test_flip_outcomes_flip_rate():
    rng = substream(11, 4)
    trials = 40000
    values = sample_block(trials, rng)
    flips = int(np.sum(flip_outcomes(values, 0.25, rng) != values))
    rate = flips / trials
    assert abs(rate - 0.25) < 5 * (0.25 * 0.75 / trials) ** 0.5


def noisy_anti_correlated_fraction(eps, blocks, first_seed):
    anti, entry = 0, REF.entry_for_bits(0, 1)
    for seed in range(first_seed, first_seed + blocks):
        table = alice_prepare(seed, eps, (0, 1), REF)
        anti += int(np.sum(table[0] != partner_outcomes(table, entry)))
    return anti / (blocks * REF.n)


def test_anti_correlation_rate_under_noise():
    # both sides flipped independently: agreement survives unless exactly
    # one side flips, so the anti-correlated fraction is 1 - 2 e (1 - e)
    eps = 0.05
    pairs = 2500 * REF.n
    anti = noisy_anti_correlated_fraction(eps, 2500, 0)
    expected = 1 - 2 * eps * (1 - eps)
    sigma = (expected * (1 - expected) / pairs) ** 0.5
    assert abs(anti - expected) < 5 * sigma


def test_sample_block_shapes_and_determinism():
    block = sample_block(32, substream(17, 6))
    again = sample_block(32, substream(17, 6))
    assert block.shape == (32,)
    assert block.dtype == np.int8
    assert np.array_equal(block, again)
    assert set(np.unique(block)) <= {-1, 1}


def test_sample_block_rejects_empty():
    with pytest.raises(ValueError):
        sample_block(0, substream(1, 8))


def test_noisy_block_breaks_some_pairs():
    broken = 1 - noisy_anti_correlated_fraction(0.2, 256, 2500)
    # expected broken fraction 2 e (1 - e) = 0.32
    assert 0.25 < broken < 0.39


def test_flip_outcomes_copies_and_preserves_domain():
    rng = substream(31, 10)
    values = sample_block(64, rng)
    before = values.copy()
    flipped = flip_outcomes(values, 0.5, rng)
    assert np.array_equal(values, before)
    assert flipped is not values
    assert set(np.unique(flipped)) <= {-1, 1}
    same = flip_outcomes(values, 0.0, rng)
    assert np.array_equal(same, values)
    assert same is not values


@given(
    st.integers(min_value=1, max_value=64).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_is_perfectly_anti_correlated_noiseless(s_j, seed):
    entry = make_entry((0, 0), s_j)
    table = prepared_block_from_signs(entry, sample_block(len(s_j), substream(seed, 11)))
    assert np.array_equal(table[0], -partner_outcomes(table, entry))
