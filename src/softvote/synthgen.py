"""Synthetic ensembles and an exhaustive weight-search oracle.

The generator stands in for real trained classifiers: each profile emits,
per sample, a distribution whose mode is the true class with probability
``accuracy`` and a uniformly random wrong class otherwise. The mode's mass
is a softmax of a single logit bump of height ``sharpness`` over a flat
background:

    mode mass       = e^sharpness / (e^sharpness + C - 1)
    background mass = 1           / (e^sharpness + C - 1)

so sharpness 0 is fully uniform and large sharpness approaches one-hot.
Classifier errors are independent across profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import metrics
from .core import EnsembleInputs, LabeledSamples, PredictionSet
from .errors import ConfigError, OracleScopeError, ValidationError
from .rng import check_seed, make_rng

ORACLE_MAX_CLASSIFIERS = 3


@dataclass(frozen=True)
class ClassifierProfile:
    name: str
    accuracy: float
    sharpness: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("classifier profile needs a name")
        if not 0.0 < float(self.accuracy) <= 1.0:
            raise ConfigError(f"accuracy must be in (0, 1], got {self.accuracy!r}")
        if not float(self.sharpness) >= 0.0:
            raise ConfigError(f"sharpness must be >= 0, got {self.sharpness!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    num_classes: int
    num_samples: int
    profiles: tuple[ClassifierProfile, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        if not self.profiles:
            raise ConfigError("need at least one classifier profile")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise ConfigError("classifier profile names must be unique")
        check_seed(self.seed)


def generate(spec: GeneratorSpec) -> EnsembleInputs:
    """Deterministically materialize the ensemble described by ``spec``.

    Draw order per seed: true labels first, then per profile (in order)
    the correctness coins, then the wrong-class offsets.
    """
    rng = make_rng(spec.seed)
    c, s = spec.num_classes, spec.num_samples
    width = len(str(s - 1))
    ids = tuple(f"s{i:0{width}d}" for i in range(s))
    y = rng.integers(0, c, size=s)
    classifiers = []
    for profile in spec.profiles:
        correct = rng.random(s) < profile.accuracy
        if c > 1:
            offsets = rng.integers(0, c - 1, size=s)
            modes = np.where(correct, y, (y + 1 + offsets) % c)
        else:
            modes = y.copy()
        # Stable for any sharpness: divide through by e^sharpness.
        damp = math.exp(-profile.sharpness)
        denom = 1.0 + (c - 1) * damp
        probs = np.full((s, c), damp / denom)
        probs[np.arange(s), modes] = 1.0 / denom
        classifiers.append(PredictionSet(profile.name, ids, probs))
    return EnsembleInputs(tuple(classifiers), LabeledSamples(ids, y))


def _simplex_grid(n: int, divisions: int):
    # Lexicographically ascending integer compositions of `divisions`.
    for cuts in combinations_with_replacement(range(divisions + 1), n - 1):
        yield tuple(
            b - a for a, b in zip((0,) + cuts, cuts + (divisions,))
        )


def brute_force_weights(
    inputs: EnsembleInputs, grid_step: float = 0.01
) -> tuple[np.ndarray, float]:
    """Exhaustive search over simplex weights in multiples of ``grid_step``.

    Enumerates every weight vector with coordinates k/M (M =
    round(1/grid_step)) summing to 1 and returns the one with the lowest
    full-data NLL, ties to the lexicographically smallest vector. Only
    tractable for small ensembles (N <= 3).
    """
    n = inputs.n_classifiers
    if n > ORACLE_MAX_CLASSIFIERS:
        raise OracleScopeError(
            f"exhaustive search supports at most {ORACLE_MAX_CLASSIFIERS} classifiers, got {n}"
        )
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError(f"grid_step must be in (0, 0.5], got {grid_step!r}")
    divisions = round(1.0 / grid_step)
    grid = np.array(list(_simplex_grid(n, divisions)), dtype=np.float64) / divisions
    values = metrics._population_nll(grid, metrics._true_class_probs(inputs))
    best = int(np.argmin(values))  # first minimum: the lexicographically smallest
    return grid[best].copy(), float(values[best])
