"""Counter-based random number generation, always owned by the caller."""
from __future__ import annotations

import numpy as np


class SeedError(ValueError):
    """A seed below 0."""


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator: reproducible, splittable, no global state; seed >= 0."""
    if not seed >= 0:
        raise SeedError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(int(seed)))


def normal_f32(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape, dtype=np.float32)
