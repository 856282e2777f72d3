"""Domain types and fusion rules for probability-level classifier ensembles.

An ensemble is N row-stochastic prediction matrices, one per classifier,
aligned sample for sample. Fusion collapses them into a single class
distribution per sample, either unweighted (every classifier counts the
same) or through one non-negative weight per classifier:

    majority:  fused[s] = (1/N) * sum_i probs_i[s]
    weighted:  fused[s] = (1/sum_i w_i) * sum_i w_i * probs_i[s]

Both read each classifier's own matrix; nothing stacks them.

All values are immutable after construction. Every weighted sum, here
and in the weight search's scorer (``metrics._population_nll``), is
:func:`_weighted_fusion`, which adds the products in classifier index
order, so the search's scores equal the NLL of these fusions bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateWeightsError,
    DimensionError,
    LabelRangeError,
    ValidationError,
    _shown,
)

# Input rows must be probability distributions to this absolute tolerance.
# Rows that miss it are rejected outright, never silently renormalized.
ROW_SUM_TOLERANCE = 1e-6

# A usable weight vector sums to more than this: far below it fusion's products
# underflow. ``as_weights`` refuses the rest, and the search scores them +inf.
_WEIGHT_SUM_FLOOR = 1e-12


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _string(value, what: str) -> str:
    """``value``, which must be a ``str``; anything else is a ValidationError."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {_shown(value)}")
    return value


def _strings(values: Iterable, what: str) -> tuple[str, ...]:
    """``values`` as a tuple; a ``str`` itself, or an item that is not one, is a ValidationError."""
    if isinstance(values, str):
        raise ValidationError(f"{what} must be a sequence of strings, got {_shown(values)}")
    values = tuple(values)
    if not all(map(isinstance, values, repeat(str))):  # C speed: a load checks every sample id
        i = next(i for i, v in enumerate(values) if not isinstance(v, str))
        _string(values[i], f"{what}[{i}]")
    return values


def _first_duplicate(ids: Sequence[str]) -> str | None:
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            return sid
        seen.add(sid)


def _classifier_names(names: Sequence[str], error: type[ValidationError] = ValidationError) -> None:
    """Refuse, as ``error``, a list of classifier names that is empty or names one twice."""
    if not names:
        raise error("classifiers must list at least one classifier")
    dup = _first_duplicate(names)
    if dup is not None:
        raise error(f"duplicate classifier name '{dup}'")


def _file_classifier_name(name, error: type[ValidationError] = ValidationError) -> str:
    """``name``, a classifier's name in a file, which ``--subset`` can pick.

    That is a non-empty ``str`` with no comma and no whitespace at either
    end, since ``--subset`` splits at commas and strips each name; anything
    else is ``error``.
    """
    if not isinstance(name, str) or not name:
        raise error(f"name must be a non-empty string, got {_shown(name)}")
    if "," in name or name.strip() != name:
        raise error(f"name must hold no comma and no whitespace at either end, got {_shown(name)}")
    return name


def _numbers(values, name: str, ndim: int, dtype: type = np.float64, copy: bool = False) -> np.ndarray:
    """``values`` as an ``ndim``-D int64 or float64 array: the array rule, as ``errors._real`` is the number rule.

    Ragged nesting is a DimensionError. A non-empty array whose dtype is
    not integers (or, for float64, floats) is a ValidationError, so bool,
    text, object and complex input is refused, never cast. A uint64 label
    that int64 cannot hold is a LabelRangeError. With ``copy`` the result
    is new; without it, an ndarray of ``dtype`` is returned uncopied.
    """
    try:
        array = (np.array if copy else np.asarray)(values)
    except ValueError:  # numpy's text for ragged nesting names no argument
        raise DimensionError(f"{name} must not be ragged") from None
    kinds, wanted = ("iu", "integers") if dtype is np.int64 else ("iuf", "real numbers")
    if array.size and array.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be {wanted}, got {array.dtype.name} values")
    if array.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if dtype is np.int64 and array.dtype == np.uint64:
        big = array > np.iinfo(np.int64).max
        if big.any():
            raise LabelRangeError(f"{name} must be below 2**63, got {array[big][0]}")
    return array.astype(dtype, copy=False)


def _first_invalid_row(probs: np.ndarray) -> tuple[int, str] | None:
    """The first row of an (S, C) matrix that is not a distribution, and why.

    Within a row the checks run in this order: an entry outside [0, 1]
    (which catches infinities), a NaN entry, and a sum more than
    :data:`ROW_SUM_TOLERANCE` away from 1. The sum that decides is
    ``math.fsum``'s correctly rounded one, which does not depend on the
    summation order. ``np.sum`` stands in for it wherever it cannot change
    the decision: on C entries in [0, 1] summing near 1 its rounding error
    is below (C - 1) * eps / 2, so only rows whose ``np.sum`` lies within
    2 * C * eps of the tolerance are summed exactly.
    """
    outside = ((probs < 0.0) | (probs > 1.0)).any(axis=1)
    nan = np.isnan(probs).any(axis=1)
    # A row holding inf and -inf sums to NaN, and one of huge entries
    # overflows; both are already outside [0, 1], so numpy need not warn.
    with np.errstate(invalid="ignore", over="ignore"):
        off = np.abs(probs.sum(axis=1) - 1.0)
    sum_bad = off > ROW_SUM_TOLERANCE
    margin = 2.0 * probs.shape[1] * np.finfo(np.float64).eps
    for row in np.flatnonzero(np.abs(off - ROW_SUM_TOLERANCE) <= margin):
        sum_bad[row] = abs(math.fsum(probs[row].tolist()) - 1.0) > ROW_SUM_TOLERANCE
    bad = outside | nan | sum_bad
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    if outside[row]:
        return row, "probability outside [0, 1]"
    if nan[row]:
        return row, "non-finite probability"
    total = math.fsum(probs[row].tolist())
    return row, f"probabilities sum to {total!r} (want 1 within {ROW_SUM_TOLERANCE})"


def _subset_rows(names: Iterable[str], available: Sequence[str]) -> list[int]:
    """Each name's index in ``available``: at least one name, none twice, none unknown, checked in that order."""
    wanted = list(names)
    if not wanted:
        raise ValidationError("subset needs at least one classifier name")
    dup = _first_duplicate(wanted)
    if dup is not None:
        raise ValidationError(f"subset names classifier '{dup}' twice")
    index = {name: i for i, name in enumerate(available)}
    unknown = next((n for n in wanted if n not in index), None)
    if unknown is not None:
        raise ValidationError(f"unknown classifier '{unknown}'")
    return [index[n] for n in wanted]


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """One classifier's per-sample class probabilities.

    ``probs`` is an (S, C) float64 matrix of real numbers: bool, text,
    object, complex and ragged input is refused, not cast (see
    :func:`_numbers`), though numpy reads a list mixing bools and floats as
    floats. Every row must be a probability distribution: entries in
    [0, 1] whose exact sum is 1 within :data:`ROW_SUM_TOLERANCE` (see
    :func:`_first_invalid_row`, which the CSV loader shares). The name and
    the sample ids must be ``str``, and the ids unique.
    """

    classifier_name: str
    sample_ids: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        name = _string(self.classifier_name, "classifier_name")
        object.__setattr__(self, "sample_ids", _strings(self.sample_ids, f"{name}: sample_ids"))
        probs = _numbers(self.probs, f"{name}: probabilities", 2, copy=True)
        if probs.shape[1] < 1:
            raise DimensionError(f"{name}: need at least one class column")
        if probs.shape[0] != len(self.sample_ids):
            raise DimensionError(
                f"{name}: {len(self.sample_ids)} sample ids for {probs.shape[0]} probability rows"
            )
        dup = _first_duplicate(self.sample_ids)
        if dup is not None:
            raise ValidationError(f"{name}: duplicate sample_id '{dup}'")
        bad = _first_invalid_row(probs)
        if bad is not None:
            row, reason = bad
            raise ValidationError(f"{name}: row {row}: {reason}")
        object.__setattr__(self, "probs", _frozen(probs))

    @property
    def num_samples(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledSamples:
    """Ground-truth class indices keyed by unique ``str`` sample ids, in a fixed order.

    ``labels`` must be a 1-D array of non-negative integers of any integer
    dtype, stored as a new int64 array; a bool, float or text array is
    refused, not cast (see :func:`_numbers`, which the metrics share).
    """

    sample_ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", _strings(self.sample_ids, "labels: sample_ids"))
        labels = _numbers(self.labels, "labels", 1, np.int64, copy=True)
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

    There must be at least one classifier, and the names must be distinct
    (``subset`` picks by name; see :func:`_classifier_names`). Any ``str``
    is a name here, since ``subset`` takes a list, not ``--subset``'s text.
    All prediction sets must share the class count and the exact sample id
    sequence; every sample id must carry a label. Construction fails loudly
    on the first divergence instead of reordering or joining classifiers.
    ``labels`` holds the labels of the classifiers' samples in their row
    order: the given object when its ids are already that sequence, else
    a new one that drops the ids no classifier has.
    """

    classifiers: tuple[PredictionSet, ...]
    labels: LabeledSamples

    def __post_init__(self) -> None:
        classifiers = tuple(self.classifiers)
        object.__setattr__(self, "classifiers", classifiers)
        _classifier_names(self.classifier_names)
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
                            f"'{ref.classifier_name}' at index {i}: "
                            f"'{ps.sample_ids[i]}' vs '{ref.sample_ids[i]}'"
                        )
                raise AlignmentError(
                    f"classifier '{ps.classifier_name}' has {len(ps.sample_ids)} samples, "
                    f"'{ref.classifier_name}' has {len(ref.sample_ids)}"
                )
        labels = self.labels
        if labels.sample_ids != ref.sample_ids:
            by_id = dict(zip(labels.sample_ids, labels.labels.tolist()))
            missing = next((sid for sid in ref.sample_ids if sid not in by_id), None)
            if missing is not None:
                raise AlignmentError(f"sample '{missing}' has no ground-truth label")
            labels = LabeledSamples(ref.sample_ids, [by_id[sid] for sid in ref.sample_ids])
            object.__setattr__(self, "labels", labels)
        if labels.labels.size and labels.labels.max() >= ref.num_classes:
            sid = ref.sample_ids[int(np.argmax(labels.labels >= ref.num_classes))]
            raise LabelRangeError(
                f"label for sample '{sid}' is >= num_classes ({ref.num_classes})"
            )

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
        return self.labels.labels

    @cached_property
    def tensor(self) -> np.ndarray:
        """All probabilities as one (N, S, C) array; built on first use, never by softvote."""
        return _frozen(np.stack([ps.probs for ps in self.classifiers]))

    def subset(self, names: Iterable[str]) -> "EnsembleInputs":
        """Ensemble restricted to the named classifiers, in the given order, by the rule of ``--subset``."""
        rows = _subset_rows(names, self.classifier_names)
        return EnsembleInputs(tuple(self.classifiers[i] for i in rows), self.labels)

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
    """Validate one weight per classifier: finite, non-negative, a finite sum above :data:`_WEIGHT_SUM_FLOOR`.

    Real numbers only, as for ``PredictionSet.probs``: bool, text, object,
    complex and ragged input is refused, though numpy reads a list mixing
    bools and floats as floats.
    """
    w = _numbers(weights, "weights", 1, copy=True)
    if w.shape[0] != n_classifiers:
        raise DimensionError(f"expected {n_classifiers} weights, got {w.shape[0]}")
    if np.any(~np.isfinite(w)):
        raise DegenerateWeightsError("weights must be finite")
    if np.any(w < 0.0):
        raise DegenerateWeightsError("weights must be non-negative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if total <= 0.0:
        raise DegenerateWeightsError("weights must not sum to zero")
    if total <= _WEIGHT_SUM_FLOOR:
        raise DegenerateWeightsError(f"weights must sum to more than {_WEIGHT_SUM_FLOOR!r}, got {float(total)!r}")
    if not np.isfinite(total):
        raise DegenerateWeightsError("weights must have a finite sum")
    return _frozen(w)


def fuse_majority(inputs: EnsembleInputs) -> np.ndarray:
    """Unweighted mean of all classifiers' distributions, shape (S, C).

    Output rows sum to 1 within 1e-9.
    """
    return fuse_weighted(inputs, np.ones(inputs.n_classifiers))


def fuse_weighted(inputs: EnsembleInputs, weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized weighted sum of the classifiers' distributions, shape (S, C).

    Scale-invariant in the weights; a constant weight vector reproduces
    :func:`fuse_majority`. Refuses what :func:`as_weights` refuses, so
    output rows sum to 1 within 1e-9.
    """
    w = as_weights(weights, inputs.n_classifiers)
    return _weighted_fusion(w, [ps.probs for ps in inputs.classifiers], float(w.sum()))


def _weighted_fusion(weights, arrays, total, out=None, term=None) -> np.ndarray:
    """``sum_i weights[i] * arrays[i] / total``, added in index order; buffers ``out`` and ``term`` are made if None."""
    out = np.multiply(weights[0], arrays[0], out=out)
    for i in range(1, len(arrays)):
        out += np.multiply(weights[i], arrays[i], out=term)
    out /= total
    return out


def argmax_class(distribution: Sequence[float] | np.ndarray) -> int:
    """Index of the largest probability; ties break to the lowest index."""
    d = _numbers(distribution, "distribution", 1)
    if d.size == 0:
        raise DimensionError("distribution must not be empty")
    return int(np.argmax(d))


def _fused_matrix(fused) -> np.ndarray:
    """``fused`` as a float64 array, which must be an (S, C) matrix with C >= 1."""
    f = _numbers(fused, "fused", 2)
    if f.shape[1] == 0:
        raise DimensionError("fused must have at least one class column")
    return f


def argmax_classes(fused: np.ndarray) -> np.ndarray:
    """Row-wise :func:`argmax_class` for an (S, C) matrix."""
    return np.argmax(_fused_matrix(fused), axis=1)
