"""Anti-correlated pair sampling in the z-basis.

The protocol only ever measures in the z-basis, so a shared singlet behaves
exactly like a classical anti-correlated coin: each side is uniform on
{+, -} and the two sides always disagree. We therefore sample outcomes
directly at preparation time instead of simulating state vectors. Optional
classical noise flips each delivered outcome independently (a binary
symmetric channel per side), which makes the observed anti-correlation rate
1 - 2*eps*(1 - eps).

Both rules read raw 64-bit generator outputs (``rng.substream_uint64s``),
one row per session, and draw what numpy's ``Generator`` draws from them.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "sample_blocks",
    "flips",
]


def sample_blocks(words: np.ndarray, n: int) -> np.ndarray:
    """Sender-side orientations of n pairs per session, one int8 +/-1 per
    pair label; the other side of each pair is the negation. Row i is
    ``integers(0, 2, size=n, dtype=np.int8) * 2 - 1`` of the generator whose
    first 64-bit outputs are ``words[i]`` (at least ceil(n / 8) of them).
    That call takes one byte per pair, in little-endian order from each
    output, and Lemire's method, whose threshold is 0 here, keeps the top
    bit of each byte."""
    if n < 1:
        raise ValueError(f"block size must be at least 1, got {n}")
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)[:, :n]
    return (octets >> 7).astype(np.int8) * 2 - 1


def flips(words: np.ndarray, p: float) -> np.ndarray:
    """Which draws come up with probability ``p``: ``random(m) < p`` of the
    generator whose first m 64-bit outputs are ``words``, since ``random``
    scales the top 53 bits of each output to [0, 1)."""
    return (words >> np.uint64(11)) * 2.0**-53 < p
