"""Seeded random source shared by every stochastic component.

All randomness in the package flows through NumPy's PCG64 bit generator.
Each consumer documents the exact order of its draws, so a given seed
reproduces results bit for bit no matter how much work runs in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, _integer

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    return _integer(seed, "seed", ConfigError, 0, MAX_SEED, message="{name} must be in [0, 2**64), got {value}")


def make_rng(seed: int) -> np.random.Generator:
    """Return a fresh PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))
