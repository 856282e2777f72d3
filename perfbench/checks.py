"""Output checks: every file the CLI writes is recomputed in-process.

A check that fails names the output file, so the run can charge the
failure to the command that wrote it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import Case, Workload, output_files

# The search keeps the all-0.5 baseline, which fuses in another order than
# majority fusion; the acceptance suite allows it this much rounding.
MAJORITY_SLACK = 1e-12
# Clip used by the benchmark's own NLL; the same as softvote's.
NLL_EPSILON = 1e-15
EM_ITERATIONS = 500


def em_optimum_nll(tensor: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL at the convex optimum of the fusion weights.

    Fixed-iteration EM for mixture weights,
    ``w <- w * mean_s(p_is / sum_j w_j p_js)``, on the true-class
    probabilities only. Sums run along fixed axes, so the value repeats bit
    for bit on one machine.
    """
    p = tensor[:, np.arange(labels.shape[0]), labels]  # (N, S)
    w = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(EM_ITERATIONS):
        w = w * (p / (w[:, None] * p).sum(axis=0)).mean(axis=1)
    mix = (w[:, None] * p).sum(axis=0) / w.sum()
    return float(np.mean(-np.log(np.clip(mix, NLL_EPSILON, 1.0))))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Loads each bundle once through softvote and checks a case's outputs."""

    def __init__(self, softvote):
        self.sv = softvote
        self._manifest: Path | None = None
        self._inputs = None
        self._reference: tuple[float, float] | None = None

    def preload(self, manifest: Path, inputs) -> None:
        """Use an ensemble the program already loaded from ``manifest``."""
        self._manifest, self._inputs = manifest, inputs
        labels = inputs.label_array
        majority = self.sv.metrics.nll(self.sv.core.fuse_majority(inputs), labels)
        self._reference = (majority, em_optimum_nll(inputs.tensor, labels))

    def _load(self, manifest: Path):
        if manifest != self._manifest:
            self.preload(manifest, self.sv.ingest.load_manifest(manifest))
        return self._inputs

    def check_case(self, wl: Workload, case: Case) -> tuple[list[tuple[Path, str]], dict]:
        """Failures as (output file, message), plus the case's quality figures."""
        failures: list[tuple[Path, str]] = []
        quality: dict = {}
        if not case.weights.exists():
            return [(case.weights, "weights file missing")], quality
        try:
            inputs = self._load(case.manifest)
        except Exception as exc:  # a bundle the program cannot read back fails its writer
            return [(case.bundle, f"bundle does not load: {exc!r}")], quality
        majority, optimum = self._reference
        sv = self.sv
        labels = inputs.label_array

        data = json.loads(case.weights.read_text(encoding="utf-8"))
        weights = np.array(data["weights"], dtype=np.float64)
        claimed = data["full_data_nll"]
        recomputed = sv.metrics.nll(sv.core.fuse_weighted(inputs, weights), labels)
        if claimed != recomputed:
            failures.append((case.weights, f"full_data_nll {claimed!r} != recomputed {recomputed!r}"))
        if claimed > majority + MAJORITY_SLACK:
            failures.append((case.weights, f"full_data_nll {claimed!r} > majority {majority!r}"))
        quality["search_nll"] = claimed
        quality["nll_gap"] = claimed - optimum

        if case.report.exists():
            report = sv.metrics.evaluate(inputs, weights)
            failures += self._same_text(case.report, sv.ingest.report_to_json(report))
            quality["fused_nll"] = json.loads(case.report.read_text(encoding="utf-8"))["nll"]
        if case.subset_report.exists():
            names = list(wl.subset)
            index = {name: i for i, name in enumerate(inputs.classifier_names)}
            sub = sv.metrics.evaluate(inputs.subset(names), weights[[index[n] for n in names]])
            failures += self._same_text(case.subset_report, sv.ingest.report_to_json(sub))
        if case.fused.exists():
            failures += self._check_fused(case.fused, inputs, weights)
        return failures, quality

    @staticmethod
    def _same_text(path: Path, expected: str) -> list[tuple[Path, str]]:
        if path.read_bytes() != expected.encode("utf-8"):
            return [(path, "differs from the in-process rendering")]
        return []

    def _check_fused(self, path: Path, inputs, weights: np.ndarray) -> list[tuple[Path, str]]:
        lines = path.read_text(encoding="utf-8").split("\n")
        c = inputs.num_classes
        header = "sample_id," + ",".join(f"p{i}" for i in range(c)) + ",predicted"
        if lines[0] != header or lines[-1] != "":
            return [(path, "bad header or missing final newline")]
        rows = [line.split(",") for line in lines[1:-1]]
        if len(rows) != inputs.num_samples or any(len(r) != c + 2 for r in rows):
            return [(path, "wrong row or column count")]
        if tuple(r[0] for r in rows) != inputs.sample_ids:
            return [(path, "sample ids differ from the bundle")]
        values = np.array([r[1:-1] for r in rows], dtype=np.float64)
        predicted = np.array([int(r[-1]) for r in rows])
        failures = []
        if not np.array_equal(predicted, np.argmax(values, axis=1)):
            failures.append((path, "predicted != argmax of the row"))
        if not np.array_equal(values, self.sv.core.fuse_weighted(inputs, weights)):
            failures.append((path, "fused values differ from in-process fusion"))
        return failures


def compare_outputs(first: Case, again: Case) -> list[tuple[Path, str]]:
    """Every output of ``again`` must match ``first`` byte for byte."""
    before = output_files(first)
    failures = []
    for name, path in output_files(again).items():
        if name not in before or sha256(before[name]) != sha256(path):
            failures.append((path, f"{name} differs between repeats of the same seed"))
    return failures


def digests(case: Case) -> dict[str, str]:
    return {name: sha256(path) for name, path in output_files(case).items()}
