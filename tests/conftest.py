import os

import numpy as np
import pytest
from hypothesis import settings

from softvote import EnsembleInputs, LabeledSamples, PredictionSet

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, so a
# failing property test there fails the same way locally under that profile.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def build_ensemble(matrices, labels, names=None, ids=None):
    """Assemble EnsembleInputs from raw per-classifier (S, C) arrays."""
    matrices = [np.asarray(m, dtype=np.float64) for m in matrices]
    s = matrices[0].shape[0]
    if ids is None:
        ids = tuple(f"s{i}" for i in range(s))
    if names is None:
        names = tuple(f"clf{i}" for i in range(len(matrices)))
    classifiers = tuple(
        PredictionSet(name, ids, m) for name, m in zip(names, matrices)
    )
    return EnsembleInputs(classifiers, LabeledSamples(ids, np.asarray(labels)))


def random_ensemble(rng, n_classifiers, n_samples, n_classes, alpha=1.0):
    """Valid random ensemble with Dirichlet rows and uniform labels."""
    matrices = [
        rng.dirichlet(np.full(n_classes, alpha), size=n_samples)
        for _ in range(n_classifiers)
    ]
    labels = rng.integers(0, n_classes, size=n_samples)
    return build_ensemble(matrices, labels)


@pytest.fixture
def one_hot_pair():
    """Two-classifier, two-class ensemble where classifier 0 is perfect."""
    perfect = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    uniform = np.full((4, 2), 0.5)
    return build_ensemble([perfect, uniform], [0, 1, 0, 1], names=("perfect", "uniform"))
