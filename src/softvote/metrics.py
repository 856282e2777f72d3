"""Evaluation metrics for fused ensembles: NLL, accuracy, confusion matrix.

NLL is the arithmetic mean over samples of -ln(p_true), in nats, with the
true-class probability clipped to [1e-15, 1] inside the log. The lower
clip keeps degenerate inputs finite; the upper clip only absorbs rounding
dust above 1.0 so the loss can never dip below zero.

The weight search scores a whole population at once with
:func:`_population_nll`, which reads only the true-class probabilities and
reproduces :func:`nll` of each weighted fusion bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EnsembleInputs,
    LabeledSamples,
    _frozen,
    argmax_classes,
    fuse_majority,
    fuse_weighted,
)
from .errors import (
    AlignmentError,
    DimensionError,
    EmptyInputError,
    LabelRangeError,
    ValidationError,
)

NLL_EPSILON = 1e-15

# Gene sums at or below this are treated as a degenerate (unusable) weight
# vector and scored +inf so selection can never keep them.
DEGENERATE_GENE_SUM = 1e-12

# Cells in one scratch buffer of population scoring (512 KiB of float64).
_SCORE_BLOCK_CELLS = 1 << 16


def _as_fused(fused: np.ndarray) -> np.ndarray:
    f = np.asarray(fused, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] == 0:
        raise DimensionError("fused distributions must form an (S, C) matrix")
    return f


def _as_labels(labels: LabeledSamples | Sequence[int] | np.ndarray) -> np.ndarray:
    if isinstance(labels, LabeledSamples):
        return labels.labels
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got shape {y.shape}")
    return y


def _check_pair(fused: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    f = _as_fused(fused)
    y = _as_labels(labels)
    if f.shape[0] == 0:
        raise EmptyInputError("need at least one sample")
    if y.shape[0] != f.shape[0]:
        raise AlignmentError(f"{y.shape[0]} labels for {f.shape[0]} fused rows")
    if y.min() < 0 or y.max() >= f.shape[1]:
        raise LabelRangeError(f"labels must lie in [0, {f.shape[1]})")
    return f, y


def nll(fused: np.ndarray, labels: LabeledSamples | Sequence[int] | np.ndarray) -> float:
    """Mean negative log likelihood of the true classes, in nats."""
    f, y = _check_pair(fused, labels)
    p = f[np.arange(f.shape[0]), y]
    return float(np.mean(-np.log(np.clip(p, NLL_EPSILON, 1.0))))


def _true_class_probs(inputs: EnsembleInputs) -> np.ndarray:
    """Each classifier's probability of each sample's true class, shape (N, S)."""
    rows = np.arange(inputs.num_samples)
    return np.stack([ps.probs[rows, inputs.label_array] for ps in inputs.classifiers])


def _population_nll(genes: np.ndarray, true_probs: np.ndarray) -> np.ndarray:
    """Mean NLL of every gene row's weighted fusion, shape (P,).

    ``genes`` is (P, N) and ``true_probs`` is (N, S), holding each
    classifier's probability of each sample's true class. Row p equals
    ``nll(_fuse_tensor(tensor, genes[p]), labels)`` bit for bit: the same
    products, summed in classifier index order, divided by the row's gene
    sum, clipped, logged and averaged over the whole row at once. Rows
    whose gene sum is at most :data:`DEGENERATE_GENE_SUM` score +inf.

    Rows are scored a block at a time in two preallocated scratch buffers
    of at most :data:`_SCORE_BLOCK_CELLS` cells each (one row when a row
    alone is longer), so memory does not grow with the population.
    """
    n_rows, n_classifiers = genes.shape
    n_samples = true_probs.shape[1]
    if n_samples == 0:
        raise EmptyInputError("need at least one sample")
    totals = genes.sum(axis=1)
    degenerate = totals <= DEGENERATE_GENE_SUM
    # A stand-in divisor keeps degenerate rows finite until they are overwritten.
    totals[degenerate] = 1.0
    block = max(1, _SCORE_BLOCK_CELLS // n_samples)
    fused = np.empty((min(block, n_rows), n_samples))
    term = np.empty_like(fused)
    out = np.empty(n_rows)
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        g = genes[start:stop]
        acc, tmp = fused[: stop - start], term[: stop - start]
        np.multiply(g[:, :1], true_probs[0], out=acc)
        for i in range(1, n_classifiers):
            np.multiply(g[:, i : i + 1], true_probs[i], out=tmp)
            acc += tmp
        acc /= totals[start:stop, None]
        np.clip(acc, NLL_EPSILON, 1.0, out=acc)
        np.log(acc, out=acc)
        np.negative(acc, out=acc)
        out[start:stop] = acc.mean(axis=1)
    out[degenerate] = np.inf
    return out


def accuracy(fused: np.ndarray, labels: LabeledSamples | Sequence[int] | np.ndarray) -> float:
    """Top-1 accuracy as a percentage; argmax ties break to the lowest index."""
    f, y = _check_pair(fused, labels)
    correct = int(np.sum(argmax_classes(f) == y))
    return 100.0 * correct / f.shape[0]


def confusion_matrix(
    fused: np.ndarray,
    labels: LabeledSamples | Sequence[int] | np.ndarray,
    num_classes: int,
) -> np.ndarray:
    """Row-percentage confusion matrix, shape (C, C).

    Entry [a, p] is the percentage of samples with actual class ``a``
    predicted as ``p``. Rows for classes with no actual samples are all
    zero; every other row sums to 100 within 1e-6.
    """
    if num_classes < 1:
        raise DimensionError("num_classes must be >= 1")
    f, y = _check_pair(fused, labels)
    if f.shape[1] != num_classes:
        raise DimensionError(f"fused rows have {f.shape[1]} classes, expected {num_classes}")
    preds = argmax_classes(f)
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (y, preds), 1)
    totals = counts.sum(axis=1)
    percent = np.zeros((num_classes, num_classes), dtype=np.float64)
    nonzero = totals > 0
    percent[nonzero] = (100.0 * counts[nonzero]) / totals[nonzero, None]
    return percent


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """One ensemble evaluation: loss, accuracy, and the confusion structure."""

    nll: float
    accuracy_percent: float
    confusion: np.ndarray
    per_class_accuracy: np.ndarray
    classifier_names: tuple[str, ...]
    sample_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "classifier_names", tuple(self.classifier_names))
        conf = np.array(self.confusion, dtype=np.float64)
        if conf.ndim != 2 or conf.shape[0] != conf.shape[1] or conf.shape[0] == 0:
            raise DimensionError(f"confusion matrix must be square, got shape {conf.shape}")
        per_class = np.array(self.per_class_accuracy, dtype=np.float64)
        if per_class.shape != (conf.shape[0],):
            raise DimensionError("per_class_accuracy length must match the confusion matrix")
        if not np.allclose(per_class, np.diagonal(conf), atol=1e-9, rtol=0.0):
            raise ValidationError("per_class_accuracy must equal the confusion diagonal")
        sums = conf.sum(axis=1)
        ok = (np.abs(sums - 100.0) <= 1e-6) | (sums == 0.0)
        if not np.all(ok):
            row = int(np.argmax(~ok))
            raise ValidationError(f"confusion row {row} sums to {sums[row]!r}, want 100 or 0")
        if not np.isfinite(self.nll) or self.nll < 0.0:
            raise ValidationError(f"nll must be a non-negative real, got {self.nll!r}")
        if not 0.0 <= self.accuracy_percent <= 100.0:
            raise ValidationError(f"accuracy_percent out of [0, 100]: {self.accuracy_percent!r}")
        if self.sample_count < 0:
            raise ValidationError("sample_count must be non-negative")
        object.__setattr__(self, "nll", float(self.nll))
        object.__setattr__(self, "accuracy_percent", float(self.accuracy_percent))
        object.__setattr__(self, "sample_count", int(self.sample_count))
        object.__setattr__(self, "confusion", _frozen(conf))
        object.__setattr__(self, "per_class_accuracy", _frozen(per_class))

    @property
    def num_classes(self) -> int:
        return self.confusion.shape[0]

    @property
    def empty_classes(self) -> tuple[int, ...]:
        """Classes with no actual samples (their confusion rows are all zero)."""
        return tuple(int(i) for i in np.flatnonzero(self.confusion.sum(axis=1) == 0.0))


def evaluate(
    inputs: EnsembleInputs,
    weights: Sequence[float] | np.ndarray | None = None,
) -> EvaluationReport:
    """Fuse and score an ensemble; majority fusion when ``weights`` is None.

    The report's accuracy always equals the sample-weighted mean of the
    confusion diagonal within 1e-9.
    """
    fused = fuse_majority(inputs) if weights is None else fuse_weighted(inputs, weights)
    y = inputs.label_array
    conf = confusion_matrix(fused, y, inputs.num_classes)
    return EvaluationReport(
        nll=nll(fused, y),
        accuracy_percent=accuracy(fused, y),
        confusion=conf,
        per_class_accuracy=np.diagonal(conf).copy(),
        classifier_names=inputs.classifier_names,
        sample_count=inputs.num_samples,
    )
