"""The block twins of the trial stream equal numpy's own streams exactly.

``derive_seeds`` and ``substream_uint64s`` redo numpy's SeedSequence hash
and PCG64 seeding over arrays, so these tests compare them word for word
with ``derive_seed`` and ``substream``; a numpy that changed either
algorithm would fail here by name, before any pinned digest does. A block
of one seed takes numpy's own generator instead, so each test feeds blocks
of one as well as larger ones."""

import numpy as np
import pytest

from entpost.epr import sample_blocks
from entpost.rng import (KEY_BLOCK, KEY_NOISE_BOB, KEY_PREPARE, KEY_TRIAL, derive_seed,
                         derive_seeds, substream, substream_uint64s)

# one to six entropy words: 2**130 + 17 fills more than the pool of four,
# so numpy pads nothing
ROOT_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 17)
# seeds of one and two words, zero included
DRAW_SEEDS = (0, 1, 5, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x0123456789ABCDEF)
SIZES = (1, 7, 8, 9, 64, 256)


@pytest.mark.parametrize("seed", ROOT_SEEDS)
@pytest.mark.parametrize("key", [(KEY_TRIAL,), (KEY_BLOCK, 3), (2**40,)])
def test_derive_seeds_equals_derive_seed(seed, key):
    # the index grows a spawn-key word at 2**32, so this block straddles
    # both word counts, and 2**64 - 1 is the widest index there is
    indices = [0, 1, 2, 1000, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    got = derive_seeds(seed, key, indices)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(seed, *key, i) for i in indices]


def test_derive_seeds_takes_a_range_of_trials():
    for trials in (range(0, 300), range(2**32 - 5, 2**32 + 5), range(7, 8), range(3, 3)):
        assert derive_seeds(11, (KEY_TRIAL,), trials).tolist() == [
            derive_seed(11, KEY_TRIAL, t) for t in trials]


def test_twins_refuse_what_numpy_refuses():
    with pytest.raises(ValueError, match="non-negative integer"):
        derive_seeds(-1, (KEY_TRIAL,), range(3))
    with pytest.raises(ValueError, match="non-negative integer"):
        derive_seeds(1, (-2,), range(3))
    with pytest.raises(OverflowError):
        derive_seeds(1, (KEY_TRIAL,), [-1])
    with pytest.raises(OverflowError):
        derive_seeds(1, (KEY_TRIAL,), [2**64])
    with pytest.raises(ValueError, match="at least one part"):
        substream_uint64s(np.array([1], dtype=np.uint64), (), 1)


@pytest.mark.parametrize("key", [(KEY_PREPARE,), (KEY_NOISE_BOB,), (KEY_BLOCK, 2**33, 1)])
@pytest.mark.parametrize("m", [1, 2, 3, 32])
def test_substream_uint64s_equals_the_generator(key, m):
    # the twin's block, then numpy's own generator on a block of one, a
    # seed beyond 64 bits included
    for block in (DRAW_SEEDS, DRAW_SEEDS[-1:], (2**70 + 3,)):
        words = substream_uint64s(block, key, m)
        assert words.shape == (len(block), m) and words.dtype == np.uint64
        for seed, row in zip(block, words):
            assert np.array_equal(row, substream(seed, *key).bit_generator.random_raw(m))
            # Generator.random keeps the top 53 bits of each output
            assert np.array_equal((row >> np.uint64(11)) * 2.0**-53, substream(seed, *key).random(m))


@pytest.mark.parametrize("n", SIZES)
def test_sample_blocks_equals_sample_block(n):
    rng = np.random.default_rng(n)
    seeds = np.concatenate([np.array(DRAW_SEEDS, dtype=np.uint64),
                            rng.integers(0, 2**64, size=40, dtype=np.uint64, endpoint=False)])
    signs = sample_blocks(substream_uint64s(seeds, (KEY_PREPARE,), -(-n // 8)), n)
    assert signs.dtype == np.int8 and signs.shape == (len(seeds), n)
    for seed, row in zip(seeds.tolist(), signs):
        expected = substream(seed, KEY_PREPARE).integers(0, 2, size=n, dtype=np.int8) * 2 - 1
        assert np.array_equal(row, expected)
        # a block of one seed, drawn by numpy's own generator
        (alone,) = sample_blocks(substream_uint64s([seed], (KEY_PREPARE,), -(-n // 8)), n)
        assert np.array_equal(row, alone)


def test_one_trial_seeds_and_draws_through_the_twins():
    # a block of one, as a session chunk of two trials folds
    seeds = derive_seeds(2**64 - 1, (KEY_TRIAL,), range(2**32, 2**32 + 1))
    seed = derive_seed(2**64 - 1, KEY_TRIAL, 2**32)
    assert seeds.tolist() == [seed]
    assert np.array_equal(sample_blocks(substream_uint64s(seeds, (KEY_PREPARE,), 1), 8)[0],
                          substream(seed, KEY_PREPARE).integers(0, 2, size=8, dtype=np.int8) * 2 - 1)
