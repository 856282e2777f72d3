"""File formats, train/held-out splitting, and report rendering.

Formats (all UTF-8; LF written, CRLF accepted on read):

  predictions CSV   header ``sample_id,p0,...,p{C-1}``, one row per sample
  labels CSV        header ``sample_id,label``, label an integer in [0, C)
  manifest JSON     keys ``num_classes``, ``class_names``, ``classifiers``
                    (array of ``{name, path}``), ``labels``; paths resolve
                    relative to the manifest's own directory
  weights JSON      keys ``weights``, ``full_data_nll``
  report JSON       keys ``nll``, ``accuracy_percent``, ``confusion``,
                    ``per_class_accuracy``, ``classifier_names``,
                    ``sample_count``

Floats are written with Python's shortest round-trip repr, so
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import EnsembleInputs, LabeledSamples, PredictionSet, ROW_SUM_TOLERANCE
from .errors import (
    ConfigError,
    FormatError,
    LabelRangeError,
    SplitError,
    ValidationError,
)
from .ga import GAConfig
from .metrics import EvaluationReport
from .rng import check_seed, make_rng
from .synthgen import ClassifierProfile, GeneratorSpec

DEFAULT_CLASS_NAMES = (
    "safe driving",
    "text right",
    "talk right",
    "text left",
    "talk left",
    "adjust radio",
    "drink",
    "reach behind",
    "hair and makeup",
    "talk to passenger",
)


def default_class_names() -> list[str]:
    """The default 10-class driver-posture label set, index 0 through 9."""
    return list(DEFAULT_CLASS_NAMES)


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: str


@dataclass(frozen=True)
class Manifest:
    num_classes: int
    class_names: tuple[str, ...]
    classifiers: tuple[ManifestEntry, ...]
    labels_path: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        if self.num_classes < 1:
            raise ValidationError("manifest num_classes must be >= 1")
        if len(self.class_names) != self.num_classes:
            raise ValidationError(
                f"manifest lists {len(self.class_names)} class names "
                f"for {self.num_classes} classes"
            )
        names = [entry.name for entry in self.classifiers]
        if len(set(names)) != len(names):
            raise ValidationError("manifest classifier names must be unique")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < float(self.train_fraction) < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction!r}"
            )
        check_seed(self.seed)


# ---------------------------------------------------------------- CSV I/O


def _float_cell(value: str, path: str, row: int, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FormatError(
            f"{path}: row {row}: non-numeric {column} {value!r}"
        ) from None


def load_predictions(path: str | Path, num_classes: int, name: str | None = None) -> PredictionSet:
    """Parse one classifier's predictions CSV; errors carry row numbers."""
    path = Path(path)
    if num_classes < 1:
        raise ValidationError("num_classes must be >= 1")
    expected_header = ["sample_id"] + [f"p{i}" for i in range(num_classes)]
    ids: list[str] = []
    rows: list[list[float]] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise FormatError(
                f"{path}: bad header, expected {','.join(expected_header)}"
            )
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != num_classes + 1:
                raise FormatError(
                    f"{path}: row {lineno}: expected {num_classes + 1} cells, got {len(record)}"
                )
            sid = record[0]
            if sid in seen:
                raise FormatError(
                    f"{path}: row {lineno}: duplicate sample_id '{sid}' "
                    f"(first at row {seen[sid]})"
                )
            seen[sid] = lineno
            values = [
                _float_cell(cell, str(path), lineno, "probability") for cell in record[1:]
            ]
            if any(v < 0.0 or v > 1.0 for v in values):
                raise FormatError(f"{path}: row {lineno}: probability outside [0, 1]")
            total = math.fsum(values)
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise FormatError(
                    f"{path}: row {lineno}: probabilities sum to {total!r} "
                    f"(want 1 within {ROW_SUM_TOLERANCE})"
                )
            ids.append(sid)
            rows.append(values)
    probs = np.array(rows, dtype=np.float64).reshape(len(ids), num_classes)
    return PredictionSet(name if name is not None else path.stem, tuple(ids), probs)


def write_predictions(predictions: PredictionSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id"] + [f"p{i}" for i in range(predictions.num_classes)])
        for sid, row in zip(predictions.sample_ids, predictions.probs):
            writer.writerow([sid] + [repr(float(v)) for v in row])


def load_labels(path: str | Path, num_classes: int | None = None) -> LabeledSamples:
    path = Path(path)
    ids: list[str] = []
    labels: list[int] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "label"]:
            raise FormatError(f"{path}: bad header, expected sample_id,label")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 2:
                raise FormatError(f"{path}: row {lineno}: expected 2 cells, got {len(record)}")
            sid, cell = record
            if sid in seen:
                raise FormatError(
                    f"{path}: row {lineno}: duplicate sample_id '{sid}' "
                    f"(first at row {seen[sid]})"
                )
            seen[sid] = lineno
            try:
                label = int(cell)
            except ValueError:
                raise FormatError(f"{path}: row {lineno}: non-integer label {cell!r}") from None
            if label < 0 or (num_classes is not None and label >= num_classes):
                bound = num_classes if num_classes is not None else "inf"
                raise LabelRangeError(
                    f"{path}: row {lineno}: label {label} outside [0, {bound})"
                )
            ids.append(sid)
            labels.append(label)
    return LabeledSamples(tuple(ids), np.array(labels, dtype=np.int64))


def write_labels(labels: LabeledSamples, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"])
        for sid, label in zip(labels.sample_ids, labels.labels):
            writer.writerow([sid, int(label)])


# --------------------------------------------------------------- JSON I/O


def _load_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None


def _dump_json(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _require_keys(data, keys: Sequence[str], path: str | Path, what: str) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    missing = [k for k in keys if k not in data]
    extra = [k for k in data if k not in keys]
    if missing or extra:
        raise FormatError(
            f"{path}: {what} keys must be exactly {{{', '.join(keys)}}}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )


def read_manifest(path: str | Path) -> Manifest:
    data = _load_json(path)
    _require_keys(data, ["num_classes", "class_names", "classifiers", "labels"], path, "manifest")
    entries = []
    for item in data["classifiers"]:
        _require_keys(item, ["name", "path"], path, "manifest classifier")
        entries.append(ManifestEntry(name=str(item["name"]), path=str(item["path"])))
    return Manifest(
        num_classes=int(data["num_classes"]),
        class_names=tuple(str(n) for n in data["class_names"]),
        classifiers=tuple(entries),
        labels_path=str(data["labels"]),
    )


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    _dump_json(
        {
            "num_classes": manifest.num_classes,
            "class_names": list(manifest.class_names),
            "classifiers": [{"name": e.name, "path": e.path} for e in manifest.classifiers],
            "labels": manifest.labels_path,
        },
        path,
    )


def load_ensemble(manifest: Manifest, base_dir: str | Path = ".") -> EnsembleInputs:
    """Load every prediction file plus labels; classifier order = manifest order."""
    base = Path(base_dir)
    classifiers = tuple(
        load_predictions(base / entry.path, manifest.num_classes, name=entry.name)
        for entry in manifest.classifiers
    )
    labels = load_labels(base / manifest.labels_path, manifest.num_classes)
    return EnsembleInputs(classifiers, labels)


def load_manifest(path: str | Path) -> EnsembleInputs:
    """Read a manifest and load the ensemble it describes."""
    path = Path(path)
    return load_ensemble(read_manifest(path), path.parent)


def read_weights(path: str | Path) -> tuple[np.ndarray, float]:
    data = _load_json(path)
    _require_keys(data, ["weights", "full_data_nll"], path, "weights file")
    try:
        weights = np.array([float(v) for v in data["weights"]], dtype=np.float64)
        nll_value = float(data["full_data_nll"])
    except (TypeError, ValueError):
        raise FormatError(f"{path}: weights and full_data_nll must be numeric") from None
    if weights.ndim != 1 or weights.size == 0:
        raise FormatError(f"{path}: weights must be a non-empty array")
    if not math.isfinite(nll_value) or nll_value < 0.0:
        raise FormatError(f"{path}: full_data_nll must be a non-negative real")
    return weights, nll_value


def write_weights(weights: Sequence[float] | np.ndarray, full_data_nll: float, path: str | Path) -> None:
    _dump_json(
        {
            "weights": [float(v) for v in np.asarray(weights)],
            "full_data_nll": float(full_data_nll),
        },
        path,
    )


REPORT_KEYS = (
    "nll",
    "accuracy_percent",
    "confusion",
    "per_class_accuracy",
    "classifier_names",
    "sample_count",
)


def read_report(path: str | Path) -> EvaluationReport:
    data = _load_json(path)
    _require_keys(data, REPORT_KEYS, path, "report")
    return EvaluationReport(
        nll=float(data["nll"]),
        accuracy_percent=float(data["accuracy_percent"]),
        confusion=np.array(data["confusion"], dtype=np.float64),
        per_class_accuracy=np.array(data["per_class_accuracy"], dtype=np.float64),
        classifier_names=tuple(str(n) for n in data["classifier_names"]),
        sample_count=int(data["sample_count"]),
    )


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(
        {
            "nll": float(report.nll),
            "accuracy_percent": float(report.accuracy_percent),
            "confusion": [[float(v) for v in row] for row in report.confusion],
            "per_class_accuracy": [float(v) for v in report.per_class_accuracy],
            "classifier_names": list(report.classifier_names),
            "sample_count": int(report.sample_count),
        },
        indent=2,
    ) + "\n"


def render_report_table(report: EvaluationReport, class_names: Sequence[str] | None = None) -> str:
    """Human-readable report: header lines plus a row-percent confusion grid.

    NLL prints with 4 decimals, accuracy with 2, confusion cells with 2.
    Rows for classes with no actual samples render as dashes and are
    footnoted.
    """
    c = report.num_classes
    if class_names is not None and len(class_names) != c:
        raise ValidationError(
            f"{len(class_names)} class names for {c} classes"
        )
    empty = set(report.empty_classes)
    tags = [f"C{i}" for i in range(c)]
    cells = [
        ["-" if i in empty else f"{report.confusion[i, j]:.2f}" for j in range(c)]
        for i in range(c)
    ]
    width = max(
        6,
        max(len(t) for t in tags),
        max((len(x) for row in cells for x in row), default=0),
    )
    head = max(len("actual"), max(len(t) for t in tags))
    lines = [
        f"NLL: {report.nll:.4f}",
        f"Accuracy: {report.accuracy_percent:.2f}",
        f"Samples: {report.sample_count}",
        "Classifiers: " + ", ".join(report.classifier_names),
        "",
        "Confusion (row %, actual class x predicted class):",
        " " * head + "  " + " ".join(f"{t:>{width}}" for t in tags),
    ]
    for i in range(c):
        lines.append(f"{tags[i]:<{head}}  " + " ".join(f"{x:>{width}}" for x in cells[i]))
    if empty:
        lines.append("")
        lines.append(
            "no samples with actual class: " + ", ".join(f"C{i}" for i in sorted(empty))
        )
    if class_names is not None:
        lines.append("")
        lines.extend(f"C{i} = {name}" for i, name in enumerate(class_names))
    return "\n".join(lines) + "\n"


def write_report(
    report: EvaluationReport,
    path: str | Path,
    format: str = "json",
    class_names: Sequence[str] | None = None,
) -> None:
    if format == "json":
        text = report_to_json(report)
    elif format == "table":
        text = render_report_table(report, class_names)
    else:
        raise ValidationError(f"unknown report format {format!r} (want json or table)")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ------------------------------------------------------------ config files

GA_CONFIG_KEYS = (
    "population_size",
    "elite_fraction",
    "extra_parent_fraction",
    "mutation_rate",
    "generations",
    "fitness_sample_fraction",
    "seed",
)


def read_ga_config(path: str | Path) -> GAConfig:
    """GA settings from JSON; every key is optional and defaults apply."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: GA config must be a JSON object")
    unknown = [k for k in data if k not in GA_CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"{path}: unknown GA config keys {unknown}")
    try:
        return GAConfig(**data)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad GA config: {exc}") from None


def write_ga_config(config: GAConfig, path: str | Path) -> None:
    _dump_json({k: getattr(config, k) for k in GA_CONFIG_KEYS}, path)


def read_generator_spec(path: str | Path) -> GeneratorSpec:
    data = _load_json(path)
    _require_keys(data, ["num_classes", "num_samples", "seed", "classifiers"], path, "generator spec")
    profiles = []
    for item in data["classifiers"]:
        _require_keys(item, ["name", "accuracy", "sharpness"], path, "classifier profile")
        profiles.append(
            ClassifierProfile(
                name=str(item["name"]),
                accuracy=float(item["accuracy"]),
                sharpness=float(item["sharpness"]),
            )
        )
    return GeneratorSpec(
        num_classes=int(data["num_classes"]),
        num_samples=int(data["num_samples"]),
        profiles=tuple(profiles),
        seed=int(data["seed"]),
    )


# ----------------------------------------------------------- split & bundle


def split_samples(labels: LabeledSamples, spec: SplitSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded shuffle split into (train ids, held-out ids), both non-empty."""
    s = len(labels)
    if s < 2:
        raise SplitError("need at least 2 samples to split")
    order = make_rng(spec.seed).permutation(s)
    n_train = math.floor(spec.train_fraction * s)
    if n_train < 1 or n_train >= s:
        raise SplitError(
            f"train_fraction {spec.train_fraction} leaves an empty side for {s} samples"
        )
    train = tuple(labels.sample_ids[i] for i in order[:n_train])
    heldout = tuple(labels.sample_ids[i] for i in order[n_train:])
    return train, heldout


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def write_ensemble(
    inputs: EnsembleInputs,
    out_dir: str | Path,
    class_names: Sequence[str] | None = None,
) -> Path:
    """Materialize an ensemble as prediction CSVs, labels CSV, and manifest.

    Returns the manifest path. With no explicit names, 10-class ensembles
    get the default posture names and anything else gets ``class_0``...
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if class_names is None:
        if inputs.num_classes == len(DEFAULT_CLASS_NAMES):
            class_names = default_class_names()
        else:
            class_names = [f"class_{i}" for i in range(inputs.num_classes)]
    entries = []
    used: set[str] = set()
    for ps in inputs.classifiers:
        filename = _safe_filename(ps.classifier_name) + ".csv"
        if filename in used:
            raise ValidationError(f"classifier file name clash: {filename}")
        used.add(filename)
        write_predictions(ps, out / filename)
        entries.append(ManifestEntry(name=ps.classifier_name, path=filename))
    # Labels are written in classifier row order so the bundle stands alone.
    write_labels(LabeledSamples(inputs.sample_ids, inputs.label_array), out / "labels.csv")
    manifest = Manifest(
        num_classes=inputs.num_classes,
        class_names=tuple(class_names),
        classifiers=tuple(entries),
        labels_path="labels.csv",
    )
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path
