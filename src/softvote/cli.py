"""Command-line surface: fuse, search-weights, evaluate, simulate, report.

Every command is deterministic given its flags and seed. Diagnostics go to
stderr; data goes to files or stdout. Exit codes: 0 success, 1 validation
error, 2 I/O error.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import ga, ingest, metrics, synthgen
from .core import EnsembleInputs, argmax_classes, fuse_majority, fuse_weighted
from .errors import DimensionError, SoftvoteError, ValidationError


def _handled(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SoftvoteError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _emit(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_subset(subset: str | None) -> list[str] | None:
    if subset is None:
        return None
    names = [name.strip() for name in subset.split(",") if name.strip()]
    if not names:
        raise ValidationError("--subset must list at least one classifier name")
    return names


def _load_weights_for(manifest: ingest.Manifest, weights_path: str, subset: list[str] | None) -> np.ndarray:
    weights, _ = ingest.read_weights(weights_path)
    if weights.shape[0] != len(manifest.classifiers):
        raise DimensionError(
            f"weights file has {weights.shape[0]} weights but the manifest lists "
            f"{len(manifest.classifiers)} classifiers"
        )
    if subset is None:
        return weights
    # Re-bind weights by classifier name so a subset cannot misalign them.
    index = {entry.name: i for i, entry in enumerate(manifest.classifiers)}
    unknown = next((n for n in subset if n not in index), None)
    if unknown is not None:
        raise ValidationError(f"unknown classifier '{unknown}'")
    return weights[[index[n] for n in subset]]


def _load_for_subset(
    manifest_path: str, subset: str | None
) -> tuple[ingest.Manifest, EnsembleInputs, list[str] | None]:
    """The manifest, its ensemble thinned to ``--subset``, and the subset names."""
    manifest = ingest.read_manifest(manifest_path)
    inputs = ingest.load_ensemble(manifest, Path(manifest_path).parent)
    names = _parse_subset(subset)
    if names is not None:
        inputs = inputs.subset(names)
    return manifest, inputs, names


@click.group()
def cli() -> None:
    """Fuse class-probability outputs of several classifiers into one decision."""


@cli.command("fuse")
@click.option("--manifest", "manifest_path", required=True, help="Ensemble manifest JSON.")
@click.option("--weights", "weights_path", default=None, help="Weights JSON; omit for majority fusion.")
@click.option("--subset", default=None, help="Comma-separated classifier names to fuse.")
@click.option("--out", default="-", help="Output CSV path, or - for stdout.")
@_handled
def fuse_cmd(manifest_path: str, weights_path: str | None, subset: str | None, out: str) -> None:
    """Write per-sample fused distributions plus a predicted-class column."""
    manifest, inputs, names = _load_for_subset(manifest_path, subset)
    if weights_path is None:
        fused = fuse_majority(inputs)
    else:
        fused = fuse_weighted(inputs, _load_weights_for(manifest, weights_path, names))
    predicted = argmax_classes(fused)
    lines = ["sample_id," + ",".join(f"p{i}" for i in range(inputs.num_classes)) + ",predicted"]
    for sid, row, pred in zip(inputs.sample_ids, fused, predicted):
        lines.append(sid + "," + ",".join(repr(float(v)) for v in row) + f",{int(pred)}")
    _emit("\n".join(lines) + "\n", out)


@cli.command("search-weights")
@click.option("--manifest", "manifest_path", required=True, help="Ensemble manifest JSON.")
@click.option("--config", "config_path", default=None, help="GA config JSON (all keys optional).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", required=True, help="Where to write the weights JSON.")
@_handled
def search_weights_cmd(manifest_path: str, config_path: str | None, seed: int | None, out: str) -> None:
    """Learn per-classifier fusion weights with the genetic search."""
    inputs = ingest.load_manifest(manifest_path)
    config = ingest.read_ga_config(config_path) if config_path else ga.GAConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    result = ga.run_ga(inputs, config)
    for stats in result.generation_log:
        click.echo(
            f"generation {stats.generation}: best_nll={stats.best_nll:.6f} "
            f"mean_nll={stats.mean_nll:.6f}",
            err=True,
        )
    click.echo(f"full-data nll: {result.full_data_nll:.6f}", err=True)
    ingest.write_weights(result.weights, result.full_data_nll, out)


@cli.command("evaluate")
@click.option("--manifest", "manifest_path", required=True, help="Ensemble manifest JSON.")
@click.option("--weights", "weights_path", default=None, help="Weights JSON; omit for majority fusion.")
@click.option("--subset", default=None, help="Comma-separated classifier names to fuse.")
@click.option("--out", default="-", help="Output path, or - for stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
@_handled
def evaluate_cmd(
    manifest_path: str, weights_path: str | None, subset: str | None, out: str, fmt: str
) -> None:
    """Score majority or weighted fusion: NLL, accuracy, confusion matrix."""
    manifest, inputs, names = _load_for_subset(manifest_path, subset)
    weights = None
    if weights_path is not None:
        weights = _load_weights_for(manifest, weights_path, names)
    report = metrics.evaluate(inputs, weights)
    if fmt == "json":
        _emit(ingest.report_to_json(report), out)
    else:
        _emit(ingest.render_report_table(report, manifest.class_names), out)


@cli.command("simulate")
@click.option("--config", "config_path", required=True, help="Generator spec JSON.")
@click.option("--out", "out_dir", required=True, help="Directory for the generated bundle.")
@_handled
def simulate_cmd(config_path: str, out_dir: str) -> None:
    """Materialize a synthetic ensemble: prediction CSVs, labels, manifest."""
    spec = ingest.read_generator_spec(config_path)
    inputs = synthgen.generate(spec)
    manifest_path = ingest.write_ensemble(inputs, out_dir)
    click.echo(f"wrote {manifest_path}", err=True)


@cli.command("report")
@click.argument("report_path")
@click.option("--manifest", "manifest_path", default=None, help="Manifest JSON supplying class names.")
@click.option("--out", default="-", help="Output path, or - for stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
@_handled
def report_cmd(report_path: str, manifest_path: str | None, out: str, fmt: str) -> None:
    """Render a stored evaluation report."""
    report = ingest.read_report(report_path)
    if fmt == "json":
        _emit(ingest.report_to_json(report), out)
        return
    if manifest_path is not None:
        class_names = ingest.read_manifest(manifest_path).class_names
    elif report.num_classes == len(ingest.DEFAULT_CLASS_NAMES):
        class_names = ingest.default_class_names()
    else:
        class_names = None
    _emit(ingest.render_report_table(report, class_names), out)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
