"""Anti-correlated pair sampling in the z-basis.

The protocol only ever measures in the z-basis, so a shared singlet behaves
exactly like a classical anti-correlated coin: each side is uniform on
{+, -} and the two sides always disagree. We therefore sample outcomes
directly at preparation time instead of simulating state vectors. Optional
classical noise flips each delivered outcome independently (a binary
symmetric channel per side), which makes the observed anti-correlation rate
1 - 2*eps*(1 - eps).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "sample_block",
    "sample_blocks",
    "flip_outcomes",
]


def sample_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sender-side orientations of n pairs, one int8 +/-1 per pair label;
    the other side of each pair is the negation. Same generator state gives
    the same block."""
    if n < 1:
        raise ValueError(f"block size must be at least 1, got {n}")
    return (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)


def sample_blocks(words: np.ndarray, n: int) -> np.ndarray:
    """``sample_block(n, g)`` for a block of generators at once: row i is
    what it draws from the generator whose first 64-bit outputs are
    ``words[i]`` (at least ceil(n / 8) of them). Its ``integers(0, 2,
    int8)`` takes one byte per pair, in little-endian order from each
    output, and Lemire's method, whose threshold is 0 here, keeps the top
    bit of each byte."""
    if n < 1:
        raise ValueError(f"block size must be at least 1, got {n}")
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)[:, :n]
    return (octets >> 7).astype(np.int8) * 2 - 1


def flip_outcomes(values: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``values`` with each entry flipped with probability ``p``."""
    out = values.copy()
    if p > 0.0:
        out[rng.random(len(out)) < p] *= -1
    return out
