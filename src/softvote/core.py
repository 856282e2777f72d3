"""Domain types and fusion rules for probability-level classifier ensembles.

An ensemble is a stack of row-stochastic prediction matrices, one per
classifier, aligned sample for sample. Fusion collapses the stack into a
single class distribution per sample, either unweighted (every classifier
counts the same) or through one non-negative weight per classifier:

    majority:  fused[s] = (1/N) * sum_i probs_i[s]
    weighted:  fused[s] = (1/sum_i w_i) * sum_i w_i * probs_i[s]

All values are immutable after construction. The per-sample sum runs
over classifiers in index order; the weight search's population scorer
(``metrics._population_nll``) keeps that order, so its scores equal the
NLL of these fusions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateWeightsError,
    DimensionError,
    LabelRangeError,
    ValidationError,
)

# Input rows must be probability distributions to this absolute tolerance.
# Rows that miss it are rejected outright, never silently renormalized.
ROW_SUM_TOLERANCE = 1e-6


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _first_duplicate(ids: Sequence[str]) -> str | None:
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            return sid
        seen.add(sid)
    return None


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """One classifier's per-sample class probabilities.

    ``probs`` is an (S, C) float64 matrix. Every row must be a probability
    distribution: entries in [0, 1] that sum to 1 within
    :data:`ROW_SUM_TOLERANCE`. Sample ids must be unique.
    """

    classifier_name: str
    sample_ids: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        probs = np.array(self.probs, dtype=np.float64)
        name = self.classifier_name
        if probs.ndim != 2:
            raise DimensionError(f"{name}: probabilities must be 2-D, got shape {probs.shape}")
        if probs.shape[1] < 1:
            raise DimensionError(f"{name}: need at least one class column")
        if probs.shape[0] != len(self.sample_ids):
            raise DimensionError(
                f"{name}: {len(self.sample_ids)} sample ids for {probs.shape[0]} probability rows"
            )
        dup = _first_duplicate(self.sample_ids)
        if dup is not None:
            raise ValidationError(f"{name}: duplicate sample_id '{dup}'")
        if probs.size:
            if np.any(~np.isfinite(probs)):
                raise ValidationError(f"{name}: non-finite probability")
            if np.any(probs < 0.0) or np.any(probs > 1.0):
                row = int(np.argwhere((probs < 0.0) | (probs > 1.0))[0][0])
                raise ValidationError(f"{name}: probability outside [0, 1] in row {row}")
            sums = probs.sum(axis=1)
            bad = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
            if np.any(bad):
                row = int(np.argmax(bad))
                raise ValidationError(
                    f"{name}: row {row} sums to {sums[row]!r} "
                    f"(want 1 within {ROW_SUM_TOLERANCE})"
                )
        object.__setattr__(self, "probs", _frozen(probs))

    @property
    def num_samples(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledSamples:
    """Ground-truth class indices keyed by sample id, in a fixed order."""

    sample_ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise DimensionError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.shape[0] != len(self.sample_ids):
            raise DimensionError(
                f"{len(self.sample_ids)} sample ids for {labels.shape[0]} labels"
            )
        dup = _first_duplicate(self.sample_ids)
        if dup is not None:
            raise ValidationError(f"labels: duplicate sample_id '{dup}'")
        if labels.size and labels.min() < 0:
            raise LabelRangeError("labels must be non-negative")
        object.__setattr__(self, "labels", _frozen(labels))

    def __len__(self) -> int:
        return len(self.sample_ids)


@dataclass(frozen=True, eq=False)
class EnsembleInputs:
    """N aligned prediction sets plus ground truth for their samples.

    All prediction sets must share the class count and the exact sample id
    sequence; every sample id must carry a label. Construction fails loudly
    on the first divergence instead of reordering or joining.
    """

    classifiers: tuple[PredictionSet, ...]
    labels: LabeledSamples

    def __post_init__(self) -> None:
        classifiers = tuple(self.classifiers)
        object.__setattr__(self, "classifiers", classifiers)
        if not classifiers:
            raise ValidationError("ensemble needs at least one classifier")
        ref = classifiers[0]
        for ps in classifiers[1:]:
            if ps.num_classes != ref.num_classes:
                raise AlignmentError(
                    f"classifier '{ps.classifier_name}' has {ps.num_classes} classes, "
                    f"'{ref.classifier_name}' has {ref.num_classes}"
                )
            if ps.sample_ids != ref.sample_ids:
                limit = min(len(ps.sample_ids), len(ref.sample_ids))
                for i in range(limit):
                    if ps.sample_ids[i] != ref.sample_ids[i]:
                        raise AlignmentError(
                            f"classifier '{ps.classifier_name}' diverges from "
                            f"'{ref.classifier_name}' at row {i}: "
                            f"'{ps.sample_ids[i]}' vs '{ref.sample_ids[i]}'"
                        )
                raise AlignmentError(
                    f"classifier '{ps.classifier_name}' has {len(ps.sample_ids)} samples, "
                    f"'{ref.classifier_name}' has {len(ref.sample_ids)}"
                )
        by_id = dict(zip(self.labels.sample_ids, self.labels.labels))
        missing = next((sid for sid in ref.sample_ids if sid not in by_id), None)
        if missing is not None:
            raise AlignmentError(f"sample '{missing}' has no ground-truth label")
        aligned = np.array([by_id[sid] for sid in ref.sample_ids], dtype=np.int64)
        if aligned.size and aligned.max() >= ref.num_classes:
            sid = ref.sample_ids[int(np.argmax(aligned >= ref.num_classes))]
            raise LabelRangeError(
                f"label for sample '{sid}' is >= num_classes ({ref.num_classes})"
            )
        object.__setattr__(self, "_label_array", _frozen(aligned))

    @property
    def n_classifiers(self) -> int:
        return len(self.classifiers)

    @property
    def num_classes(self) -> int:
        return self.classifiers[0].num_classes

    @property
    def num_samples(self) -> int:
        return self.classifiers[0].num_samples

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return self.classifiers[0].sample_ids

    @property
    def classifier_names(self) -> tuple[str, ...]:
        return tuple(ps.classifier_name for ps in self.classifiers)

    @property
    def label_array(self) -> np.ndarray:
        """Labels aligned to the classifiers' row order, shape (S,)."""
        return self._label_array  # type: ignore[attr-defined]

    @cached_property
    def tensor(self) -> np.ndarray:
        """All probabilities stacked as an (N, S, C) array."""
        return _frozen(np.stack([ps.probs for ps in self.classifiers]))

    def subset(self, names: Iterable[str]) -> "EnsembleInputs":
        """Ensemble restricted to the named classifiers, in the given order."""
        wanted = list(names)
        if not wanted:
            raise ValidationError("subset needs at least one classifier name")
        dup = _first_duplicate(wanted)
        if dup is not None:
            raise ValidationError(f"subset names classifier '{dup}' twice")
        by_name = {ps.classifier_name: ps for ps in self.classifiers}
        unknown = next((n for n in wanted if n not in by_name), None)
        if unknown is not None:
            raise ValidationError(f"unknown classifier '{unknown}'")
        return EnsembleInputs(tuple(by_name[n] for n in wanted), self.labels)

    def restrict(self, sample_ids: Iterable[str]) -> "EnsembleInputs":
        """Ensemble restricted to the given sample ids, in the given order."""
        wanted = tuple(sample_ids)
        position = {sid: i for i, sid in enumerate(self.sample_ids)}
        missing = next((sid for sid in wanted if sid not in position), None)
        if missing is not None:
            raise AlignmentError(f"sample '{missing}' not present in ensemble")
        rows = np.array([position[sid] for sid in wanted], dtype=np.int64)
        classifiers = tuple(
            PredictionSet(ps.classifier_name, wanted, ps.probs[rows])
            for ps in self.classifiers
        )
        labels = LabeledSamples(wanted, self.label_array[rows])
        return EnsembleInputs(classifiers, labels)


def as_weights(weights: Sequence[float] | np.ndarray, n_classifiers: int) -> np.ndarray:
    """Validate one weight per classifier: finite, non-negative, positive sum."""
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionError(f"weights must be 1-D, got shape {w.shape}")
    if w.shape[0] != n_classifiers:
        raise DimensionError(f"expected {n_classifiers} weights, got {w.shape[0]}")
    if np.any(~np.isfinite(w)):
        raise DegenerateWeightsError("weights must be finite")
    if np.any(w < 0.0):
        raise DegenerateWeightsError("weights must be non-negative")
    if w.sum() <= 0.0:
        raise DegenerateWeightsError("weights must not sum to zero")
    return _frozen(w)


def _fuse_tensor(tensor: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Accumulate in classifier index order; metrics._population_nll
    # repeats these exact operations on the true-class column only.
    total = float(weights.sum())
    fused = weights[0] * tensor[0]
    for i in range(1, tensor.shape[0]):
        fused += weights[i] * tensor[i]
    fused /= total
    return fused


def fuse_majority(inputs: EnsembleInputs) -> np.ndarray:
    """Unweighted mean of all classifiers' distributions, shape (S, C).

    Output rows sum to 1 within 1e-9.
    """
    return _fuse_tensor(inputs.tensor, np.ones(inputs.n_classifiers))


def fuse_weighted(inputs: EnsembleInputs, weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized weighted sum of the classifiers' distributions, shape (S, C).

    Scale-invariant in the weights; a constant weight vector reproduces
    :func:`fuse_majority`. Output rows sum to 1 within 1e-9.
    """
    w = as_weights(weights, inputs.n_classifiers)
    return _fuse_tensor(inputs.tensor, w)


def argmax_class(distribution: Sequence[float] | np.ndarray) -> int:
    """Index of the largest probability; ties break to the lowest index."""
    d = np.asarray(distribution, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise DimensionError("distribution must be a non-empty 1-D vector")
    return int(np.argmax(d))


def argmax_classes(fused: np.ndarray) -> np.ndarray:
    """Row-wise :func:`argmax_class` for an (S, C) matrix."""
    f = np.asarray(fused, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] == 0:
        raise DimensionError("fused distributions must form an (S, C) matrix")
    return np.argmax(f, axis=1)
