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
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import metrics
from .core import EnsembleInputs, LabeledSamples, PredictionSet, _first_duplicate
from .errors import ConfigError, OracleScopeError, ValidationError, _integer, _real, _shown
from .ga import MAX_POPULATION_SIZE
from .rng import check_seed, make_rng

# Upper limits on a spec's counts. ``generate`` holds a string id per sample
# and one (num_samples, num_classes) float64 array per profile, so a larger
# count is a ConfigError, not a failed allocation.
MAX_NUM_CLASSES = 1_000
MAX_NUM_SAMPLES = 1_000_000


@dataclass(frozen=True)
class ClassifierProfile:
    name: str
    accuracy: float
    sharpness: float

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"name must be a non-empty string, got {_shown(self.name)}")
        _real(self.accuracy, "accuracy", ConfigError, 0, 1, "(]")
        _real(self.sharpness, "sharpness", ConfigError, 0)
        # inf gives one-hot rows; a finite value past the float range would
        # overflow in generate's math.exp.
        if self.sharpness > sys.float_info.max and self.sharpness != math.inf:
            raise ConfigError(f"sharpness must be inf or at most {sys.float_info.max!r}, got {_shown(self.sharpness)}")


@dataclass(frozen=True)
class GeneratorSpec:
    num_classes: int
    num_samples: int
    profiles: tuple[ClassifierProfile, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        for name, high in (("num_classes", MAX_NUM_CLASSES), ("num_samples", MAX_NUM_SAMPLES)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError, 1, high))
        if not self.profiles:
            raise ConfigError("classifiers must list at least one profile")
        bad = next((p for p in self.profiles if not isinstance(p, ClassifierProfile)), None)
        if bad is not None:
            raise ConfigError(f"profiles must be ClassifierProfile values, got {_shown(bad)}")
        dup = _first_duplicate([p.name for p in self.profiles])
        if dup is not None:
            raise ConfigError(f"duplicate classifier name '{dup}'")
        object.__setattr__(self, "seed", check_seed(self.seed))


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
    full-data NLL, ties to the lexicographically smallest vector. The grid is one
    population of at most 100 000 points: N = 3 at step 0.01, N = 8 at 0.25.
    """
    n = inputs.n_classifiers
    _real(grid_step, "grid_step", ValidationError, 0, 0.5, "(]", one_message=True)
    # The grid is scored as one population. 1 / grid_step is inf for a subnormal step, which round() refuses.
    divisions = round(min(1.0 / grid_step, MAX_POPULATION_SIZE))
    if math.comb(divisions + n - 1, n - 1) > MAX_POPULATION_SIZE:  # M + 1 points at n = 2
        raise OracleScopeError(
            f"grid_step {_shown(grid_step)} gives more than {MAX_POPULATION_SIZE} grid points for {n} classifiers"
        )
    grid = np.array(list(_simplex_grid(n, divisions)), dtype=np.float64) / divisions
    values = metrics._population_nll(grid, metrics._true_class_probs(inputs))
    best = int(np.argmin(values))  # first minimum: the lexicographically smallest
    return grid[best].copy(), float(values[best])
