import numpy as np
import pytest
from hypothesis import given, strategies as st

from entpost.codebook import make_entry, reference_codebook
from entpost import rng as rng_mod
from entpost.epr import flips, sample_blocks
from entpost.protocol import ProtocolConfig, alice_prepare, prepared_block_from_signs
from entpost.rng import KEY_PREPARE, substream, substream_uint64s

REF = reference_codebook()


def signs_of(seed, key, n):
    """The orientations ``sample_blocks`` draws from one substream."""
    return sample_blocks(substream_uint64s([seed], (key,), -(-n // 8)), n)[0]


def partner_outcomes(table, entry):
    """Sonai's outcome for each of bob's positions, read through the entry's
    pairing: noiseless, the negation of bob's row."""
    return table[1].take(entry.partner_arrays[0])


def test_singlet_always_anti_correlated():
    seen = set()
    for seed in range(50):
        for bits in ((0, 0), (1, 1), (0, 1), (1, 0)):
            table, entry = alice_prepare([seed], 0.0, [bits], REF)[0], REF.entry_for_bits(*bits)
            assert np.array_equal(table[0], -partner_outcomes(table, entry))
            seen.update(zip(table[0].tolist(), partner_outcomes(table, entry).tolist()))
    # both orientations occur
    assert seen == {(1, -1), (-1, 1)}


def test_singlet_orientation_is_unbiased():
    plus = int(np.sum(signs_of(7, 2, 20000) == 1))
    # 5 sigma band around 10000 (sigma = 0.5 * sqrt(20000) ~= 70.7)
    assert abs(plus - 10000) < 5 * 70.8


def test_noise_model_validation():
    assert ProtocolConfig(noise=0.0).noise == 0.0
    assert ProtocolConfig(noise=0.5).noise == 0.5
    with pytest.raises(ValueError, match=r"flip probability must lie in \[0, 0.5\], got -0.01"):
        ProtocolConfig(noise=-0.01)
    with pytest.raises(ValueError, match=r"flip probability must lie in \[0, 0.5\], got 0.51"):
        ProtocolConfig(noise=0.51)


def test_flip_outcomes_noiseless_is_identity(monkeypatch):
    words = substream_uint64s([5], (3,), 50)
    assert not flips(words, 0.0).any()
    # no draws, so a noiseless preparation never reads the noise streams
    keys, draw = [], rng_mod.substream_uint64s

    def spy(seeds, key, m):
        keys.append(tuple(key))
        return draw(seeds, key, m)

    monkeypatch.setattr(rng_mod, "substream_uint64s", spy)
    table = alice_prepare([5, 6], 0.0, [(0, 0), (1, 1)], REF)
    assert keys == [(KEY_PREPARE,)]
    assert np.array_equal(table[0], prepared_block_from_signs(REF.entry_for_bits(0, 0),
                                                              signs_of(5, KEY_PREPARE, 8)))


def test_flip_outcomes_flip_rate():
    trials = 40000
    flipped = int(np.sum(flips(substream_uint64s([11], (4,), trials), 0.25)))
    rate = flipped / trials
    assert abs(rate - 0.25) < 5 * (0.25 * 0.75 / trials) ** 0.5


def noisy_anti_correlated_fraction(eps, blocks, first_seed):
    anti, entry = 0, REF.entry_for_bits(0, 1)
    for seed in range(first_seed, first_seed + blocks):
        table = alice_prepare([seed], eps, [(0, 1)], REF)[0]
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
    block = sample_blocks(substream_uint64s([17], (6,), 4), 32)
    again = sample_blocks(substream_uint64s([17], (6,), 4), 32)
    assert block.shape == (1, 32)
    assert block.dtype == np.int8
    assert np.array_equal(block, again)
    assert set(np.unique(block)) <= {-1, 1}
    # numpy's own draw of the same substream
    assert np.array_equal(block[0], substream(17, 6).integers(0, 2, size=32, dtype=np.int8) * 2 - 1)


def test_sample_block_rejects_empty():
    with pytest.raises(ValueError):
        sample_blocks(substream_uint64s([1], (8,), 1), 0)


def test_noisy_block_breaks_some_pairs():
    broken = 1 - noisy_anti_correlated_fraction(0.2, 256, 2500)
    # expected broken fraction 2 e (1 - e) = 0.32
    assert 0.25 < broken < 0.39


def test_flip_outcomes_copies_and_preserves_domain():
    words = substream_uint64s([31, 32], (10,), 64)
    before = words.copy()
    mask = flips(words, 0.5)
    assert np.array_equal(words, before)
    assert mask.shape == words.shape and mask.dtype == bool
    flipped = alice_prepare([31, 32], 0.5, [(0, 1), (1, 0)], REF)
    assert set(np.unique(flipped)) <= {-1, 1}
    same = alice_prepare([31, 32], 0.0, [(0, 1), (1, 0)], REF)
    assert not np.array_equal(same, flipped)
    assert np.array_equal(np.abs(same), np.abs(flipped))


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.05, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
@pytest.mark.parametrize("seeds", [(3,), (3, 4, 2**64 - 1)])
def test_flips_equal_the_generator_random(p, seeds):
    words = substream_uint64s(seeds, (7,), 300)
    for seed, row in zip(seeds, flips(words, p)):
        assert np.array_equal(row, substream(seed, 7).random(300) < p)


@given(
    st.integers(min_value=1, max_value=64).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_is_perfectly_anti_correlated_noiseless(s_j, seed):
    entry = make_entry((0, 0), s_j)
    table = prepared_block_from_signs(entry, signs_of(seed, 11, len(s_j)))
    assert np.array_equal(table[0], -partner_outcomes(table, entry))
