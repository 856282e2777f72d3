"""Evaluation metrics for fused ensembles: NLL, accuracy, confusion matrix.

NLL is the arithmetic mean over samples of -ln(p_true), in nats, with the
true-class probability clipped to [1e-15, 1] inside the log. The lower
clip keeps degenerate inputs finite; the upper clip only absorbs rounding
dust above 1.0 so the loss can never dip below zero.

The weight search scores a whole population at once with
:func:`_population_nll`, which reads only the true-class probabilities
and scores each distinct gene row once (a converged population is mostly
clones). It fuses with ``core._weighted_fusion`` and scores with
:func:`_mean_nll`, as :func:`fuse_weighted` and :func:`nll` do, so each
score is the NLL of its row's weighted fusion bit for bit, or +inf where
fusion refuses the row.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EnsembleInputs,
    LabeledSamples,
    _WEIGHT_SUM_FLOOR,
    _frozen,
    _fused_matrix,
    _strings,
    _weighted_fusion,
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
    _integer,
    _real,
)

NLL_EPSILON = 1e-15

# Cells in one scratch buffer of population scoring (512 KiB of float64).
_SCORE_BLOCK_CELLS = 1 << 16


def _as_labels(labels: LabeledSamples | Sequence[int] | np.ndarray) -> np.ndarray:
    if isinstance(labels, LabeledSamples):
        return labels.labels
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got shape {y.shape}")
    return y


def _check_pair(fused: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    f = _fused_matrix(fused)
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
    return float(_mean_nll(f[np.arange(f.shape[0]), y]))


def _mean_nll(p: np.ndarray) -> np.ndarray:
    """Mean of ``-ln(clip(p, NLL_EPSILON, 1))`` along the last axis, the one NLL step; ``p`` is overwritten."""
    np.clip(p, NLL_EPSILON, 1.0, out=p)
    np.log(p, out=p)
    np.negative(p, out=p)
    return p.mean(axis=-1)


def _true_class_probs(inputs: EnsembleInputs) -> np.ndarray:
    """Each classifier's probability of each sample's true class, shape (N, S)."""
    rows = np.arange(inputs.num_samples)
    return np.stack([ps.probs[rows, inputs.label_array] for ps in inputs.classifiers])


def _population_nll(genes: np.ndarray, true_probs: np.ndarray) -> np.ndarray:
    """Mean NLL of every gene row's weighted fusion, shape (P,).

    ``genes`` is (P, N), finite and non-negative, and ``true_probs`` is
    (N, S), holding each classifier's probability of each sample's true
    class. Row p scores +inf exactly when ``as_weights(genes[p])`` refuses
    it (a sum at or below ``core._WEIGHT_SUM_FLOOR``), else it equals
    ``nll(fuse_weighted(inputs, genes[p]), labels)`` bit for bit: both
    fuse with ``core._weighted_fusion``, dividing by the row's gene sum,
    and score with :func:`_mean_nll`.

    Each distinct row is scored once and its score copied to the rows
    that repeat it; rows count as the same when their bytes are equal.
    Distinct rows are scored a block at a time in two preallocated
    scratch buffers of at most :data:`_SCORE_BLOCK_CELLS` cells each (one
    row when a row alone is longer), so memory does not grow with the
    population.
    """
    n_samples = true_probs.shape[1]
    if n_samples == 0:
        raise EmptyInputError("need at least one sample")
    rows = np.ascontiguousarray(genes)  # one void item per row
    keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").reshape(-1)
    keys, inverse = np.unique(keys, return_inverse=True)
    distinct = keys.view(np.float64).reshape(-1, rows.shape[1])
    n_rows = distinct.shape[0]
    totals = distinct.sum(axis=1)
    degenerate = totals <= _WEIGHT_SUM_FLOOR
    # A stand-in divisor keeps degenerate rows finite until they are overwritten.
    totals[degenerate] = 1.0
    block = max(1, _SCORE_BLOCK_CELLS // n_samples)
    scratch = np.empty((2, min(block, n_rows), n_samples))  # the fused block and one product
    out = np.empty(n_rows)
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        weights = distinct[start:stop].T[..., None]  # weights[i] is gene column i, shape (rows, 1)
        acc = _weighted_fusion(weights, true_probs, totals[start:stop, None], *scratch[:, : stop - start])
        out[start:stop] = _mean_nll(acc)
    out[degenerate] = np.inf
    return out[inverse]


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
    num_classes = _integer(num_classes, "num_classes", DimensionError, 1, message="{name} must be >= 1")
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
        object.__setattr__(self, "classifier_names", _strings(self.classifier_names, "classifier_names"))
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
        nonnegative, out_of = "{name} must be a non-negative real, got {value}", "{name} out of [0, 100]: {value}"
        loss = _real(self.nll, "nll", low=0, high=sys.float_info.max, message=nonnegative, one_message=True)
        percent = _real(self.accuracy_percent, "accuracy_percent", low=0, high=100, message=out_of, one_message=True)
        count = _integer(self.sample_count, "sample_count", low=0, message="{name} must be non-negative")
        object.__setattr__(self, "nll", float(loss))
        object.__setattr__(self, "accuracy_percent", float(percent))
        object.__setattr__(self, "sample_count", count)
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
