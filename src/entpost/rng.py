"""Splittable seeded randomness.

Every run derives all of its randomness from one root seed. Independent
substreams are addressed by integer key paths instead of by draw order, so a
Monte Carlo trial gets the same stream no matter which worker runs it or in
which order trials complete.

Every trial draw (the prepared orientations, the noise flips and a liar's
flips) comes from ``substream_uint64s``: the raw PCG64 outputs of one
substream for each seed of a block. It is the one place that chooses how
they are made. A block of one seed takes numpy's own generator, which is
cheaper for a single seed; a larger block takes the twin, numpy's
SeedSequence hash and PCG64 seeding and stepping written over arrays, so
one call serves the whole block with the very numbers numpy gives each
seed. ``derive_seeds`` is the same kind of twin of ``derive_seed``.
"""
from __future__ import annotations

import functools
import secrets
from typing import Iterable, Sequence

import numpy as np

__all__ = ["substream", "derive_seed", "derive_seeds", "substream_uint64s", "fresh_entropy_seed"]

# Stream addresses used by the session machinery. Keeping them in one table
# avoids accidental collisions between key paths.
KEY_CODEBOOK = 1
KEY_PREPARE = 2
KEY_NOISE_BOB = 3
KEY_NOISE_SONAI = 4
KEY_LIE_BOB = 5
KEY_LIE_SONAI = 6
KEY_TRIAL = 7
KEY_BLOCK = 8


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream addressed by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def derive_seed(seed: int, *key: int) -> int:
    """A new root seed derived from ``seed`` at ``key`` (for nested runs)."""
    state = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


def fresh_entropy_seed() -> int:
    """Draw a root seed from OS entropy (used when the caller gave none)."""
    return secrets.randbits(63)


# numpy's SeedSequence constants (pool of four 32-bit words) and PCG64's multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_U32, _U64 = np.uint32, np.uint64


def _words(value: int) -> list[int]:
    """SeedSequence's split of one entropy integer: 32-bit words, lowest
    first, and [0] for zero."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    value = int(value)
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hashes(count: int, init: int, mult: int):
    """The running constants of ``count`` SeedSequence hash steps, as
    (xor, multiplier) pairs: a step XORs the constant in, advances it and
    multiplies by the new one. They never depend on the data."""
    for _ in range(count):
        advanced = init * mult & _MASK32
        yield init, advanced
        init = advanced


def _hash(value, xor: int, mult: int):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy over a block. Each assembled entropy word
    is an int shared by the block or one uint32 array with a word per
    member; so is each of the four pool words returned."""
    extra = max(len(entropy) - _POOL_SIZE, 0)
    steps = _hashes(_POOL_SIZE * (_POOL_SIZE + extra), _INIT_A, _MULT_A)
    pool = [_hash(entropy[i] if i < len(entropy) else 0, *next(steps)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):  # mix every word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for word in entropy[_POOL_SIZE:]:  # entropy beyond the pool, into every word
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, *next(steps)))
    return pool


def _state64(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words, np.uint64) over a block, one
    uint64 array per word: two hashed pool words each, low one first."""
    steps = _hashes(2 * n_words, _INIT_B, _MULT_B)
    words = [_hash(pool[i % _POOL_SIZE], *next(steps)).astype(_U64) for i in range(2 * n_words)]
    return [words[i] | words[i + 1] << _U64(32) for i in range(0, 2 * n_words, 2)]


def _key_words(key: Iterable[int]) -> list[int]:
    return [word for part in key for word in _words(part)]


def derive_seeds(seed: int, key: Iterable[int], indices: Iterable[int]) -> np.ndarray:
    """``derive_seed(seed, *key, i)`` for every index ``i`` in ``indices``,
    as one uint64 array, equal to it whatever the seed and index. An index
    of 2**32 or more takes two spawn-key words where a smaller one takes
    one, so the block is hashed once per word count."""
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # numpy pads short entropy when a spawn key follows
    prefix = run + _key_words(key)
    index = np.array(list(indices), dtype=_U64, ndmin=1)  # an int outside uint64 raises OverflowError
    out = np.empty(len(index), dtype=_U64)
    wide = index > _U64(_MASK32)
    for rows, split in ((~wide, False), (wide, True)):
        if rows.any():
            part = index[rows]
            words = [(part & _U64(_MASK32)).astype(_U32)]
            if split:
                words.append((part >> _U64(32)).astype(_U32))
            state = _state64(_pool(prefix + words), 1)[0]
            # derive_seed reads the two 32-bit words high first, generate_state low first
            out[rows] = state << _U64(32) | state >> _U64(32)
    return out


def _mul128(a: tuple, b: tuple) -> tuple:
    """(hi, lo) uint64 arrays of a * b mod 2**128."""
    (ah, al), (bh, bl) = a, b
    m32, s32 = _U64(_MASK32), _U64(32)
    a1, a0, b1, b0 = al >> s32, al & m32, bl >> s32, bl & m32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    lo = (p00 & m32) | mid << s32
    hi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + ah * bl + al * bh
    return hi, lo


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


@functools.lru_cache(maxsize=64)
def _pcg_coefficients(m: int) -> tuple:
    """(C, D) as (hi, lo) uint64 rows of length ``m``: the k-th output of a
    freshly seeded PCG64 steps from the state C[k-1] * init + D[k-1] * inc
    mod 2**128. Seeding sets the state to inc, adds init and steps once,
    so after k more steps C = M**(k+1) and D = 1 + M + ... + M**(k+1)."""
    power, total = _PCG_MULT, 1 + _PCG_MULT
    coefficients = []
    for _ in range(m):
        power = power * _PCG_MULT & _MASK128
        total = (total + power) & _MASK128
        coefficients.append((power, total))

    def split(values):
        halves = np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]], dtype=_U64)
        halves.setflags(write=False)  # one cached pair serves every caller
        return halves[0], halves[1]

    return split([c for c, _ in coefficients]), split([d for _, d in coefficients])


def substream_uint64s(seeds: Sequence[int], key: Iterable[int], m: int) -> np.ndarray:
    """The first ``m`` ``next_uint64`` outputs of ``substream(s, *key)``'s
    PCG64 for each seed ``s`` of ``seeds``, as a (len(seeds), m) uint64
    array. One seed draws from numpy's own generator; a block of seeds below
    2**64 takes each output state straight from the seeded one
    (``_pcg_coefficients``), so no generator is built or stepped."""
    key = tuple(key)
    words = _key_words(key)
    if not words:
        raise ValueError("a substream key needs at least one part")
    if len(seeds) == 1:
        return substream(int(seeds[0]), *key).bit_generator.random_raw(m)[None]
    seeds = np.asarray(seeds, dtype=_U64)
    # a seed below 2**64 is at most two words, padded to the pool's four
    run = [(seeds & _U64(_MASK32)).astype(_U32), (seeds >> _U64(32)).astype(_U32), 0, 0]
    init_hi, init_lo, seq_hi, seq_lo = (w[:, None] for w in _state64(_pool(run + words), 4))
    one = _U64(1)
    inc = (seq_hi << one | seq_lo >> _U64(63), seq_lo << one | one)
    c, d = _pcg_coefficients(m)
    hi, lo = _add128(_mul128((init_hi, init_lo), c), _mul128(inc, d))
    # PCG64's XSL-RR output: the halves XORed, rotated right by the top six bits
    x, rot = hi ^ lo, hi >> _U64(58)
    return x >> rot | x << ((_U64(64) - rot) & _U64(63))
