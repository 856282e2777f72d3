"""Seeded random source shared by every stochastic component.

All randomness in the package flows through NumPy's PCG64 bit generator.
Each consumer documents the exact order of its draws, so a given seed
reproduces results bit for bit no matter how much work runs in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, _shown

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {_shown(seed)}")
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must be in [0, 2**64), got {_shown(seed)}")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """Return a fresh PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))
