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

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "SpinOutcome",
    "NoiseModel",
    "NOISELESS",
    "sample_block",
    "flip_outcomes",
]


class SpinOutcome(IntEnum):
    """z-basis measurement result, encoded as the spin sign."""

    PLUS = 1
    MINUS = -1

    @property
    def symbol(self) -> str:
        return "+" if self is SpinOutcome.PLUS else "-"


@dataclass(frozen=True)
class NoiseModel:
    """Independent symmetric flip applied to each delivered outcome."""

    flip_probability: float = 0.0

    def __post_init__(self) -> None:
        p = self.flip_probability
        if not (0.0 <= p <= 0.5):
            raise ValueError(f"flip probability must lie in [0, 0.5], got {p}")

    @property
    def noiseless(self) -> bool:
        return self.flip_probability == 0.0


NOISELESS = NoiseModel(0.0)


def sample_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sender-side orientations of n pairs, one int8 +/-1 per pair label;
    the other side of each pair is the negation. Same generator state gives
    the same block."""
    if n < 1:
        raise ValueError(f"block size must be at least 1, got {n}")
    return (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)


def flip_outcomes(values: np.ndarray, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``values`` with each entry flipped at the model's rate."""
    out = values.copy()
    p = noise.flip_probability
    if p > 0.0:
        out[rng.random(len(out)) < p] *= -1
    return out
