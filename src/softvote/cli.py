"""Command-line surface: fuse, search-weights, evaluate, simulate, report.

Every command is deterministic given its flags and seed. Diagnostics go to
stderr; data goes to files or stdout. Exit codes: 0 success, 1 validation
error, 2 I/O error.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

# softvote calls no BLAS routine, so OpenBLAS's worker threads would only
# slow numpy's import. Set before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import ga, ingest, metrics, synthgen
from .core import EnsembleInputs, _subset_rows, argmax_classes, as_weights, fuse_majority, fuse_weighted
from .errors import DimensionError, SoftvoteError

# click after numpy: imported first, it raised search-weights' peak RSS by about 0.8 MB.
import click


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


def _emit(chunks: Iterable[str], out: str) -> None:
    """Write text to stdout when ``out`` is ``-``, else replace the file ``out`` with it."""
    if out == "-":
        for chunk in chunks:
            click.echo(chunk, nl=False)
    else:
        ingest._write_text(out, chunks)


def _load_for_subset(
    manifest_path: str, subset: str | None, weights_path: str | None
) -> tuple[ingest.Manifest, EnsembleInputs, np.ndarray | None]:
    """The manifest thinned to ``--subset``, its ensemble, and the weights for that ensemble.

    The names, split at commas and stripped, become manifest rows, and the
    weights file is checked against the full manifest and then taken by
    those rows, so weights follow names. Only then are CSVs read: the kept
    entries' and the labels. Without a weights file the weights are None.
    """
    manifest = ingest.read_manifest(manifest_path)
    rows = weights = None
    if subset is not None:
        names = [name.strip() for name in subset.split(",") if name.strip()]
        rows = _subset_rows(names, [entry.name for entry in manifest.classifiers])
    if weights_path is not None:
        weights, _ = ingest.read_weights(weights_path)
        if weights.shape[0] != len(manifest.classifiers):
            raise DimensionError(
                f"{weights_path}: has {weights.shape[0]} weights but {manifest_path} lists "
                f"{len(manifest.classifiers)} classifiers"
            )
        if rows is not None:
            where = f"subset {','.join(names)}: "
            weights = ingest._built(weights_path, where, as_weights, weights=weights[rows], n_classifiers=len(rows))
    if rows is not None:
        manifest = replace(manifest, classifiers=[manifest.classifiers[i] for i in rows])
    return manifest, ingest.load_ensemble(manifest, Path(manifest_path).parent), weights


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
    _, inputs, weights = _load_for_subset(manifest_path, subset, weights_path)
    fused = fuse_majority(inputs) if weights is None else fuse_weighted(inputs, weights)
    _emit(ingest._csv_text("p{}", inputs.sample_ids, fused, argmax_classes(fused)), out)


@cli.command("search-weights")
@click.option("--manifest", "manifest_path", required=True, help="Ensemble manifest JSON.")
@click.option("--config", "config_path", default=None, help="GA config JSON (all keys optional).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", required=True, help="Where to write the weights JSON.")
@_handled
def search_weights_cmd(manifest_path: str, config_path: str | None, seed: int | None, out: str) -> None:
    """Learn per-classifier fusion weights with the genetic search."""
    config = ingest.read_ga_config(config_path) if config_path else ga.GAConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    inputs = ingest.load_manifest(manifest_path)

    def echo_generation(snapshot: ga.GASnapshot) -> None:
        fitness = snapshot.fitness
        click.echo(
            f"generation {snapshot.generation}: best_nll={fitness.min():.6f} mean_nll={np.mean(fitness):.6f}",
            err=True,
        )

    result = ga.run_ga(inputs, config, on_generation=echo_generation)
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
    manifest, inputs, weights = _load_for_subset(manifest_path, subset, weights_path)
    report = metrics.evaluate(inputs, weights)
    if fmt == "json":
        _emit([ingest.report_to_json(report)], out)
    else:
        _emit([ingest.render_report_table(report, manifest.class_names)], out)


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
        _emit([ingest.report_to_json(report)], out)
        return
    if manifest_path is None:
        class_names = ingest._posture_names(report.num_classes)
    else:
        class_names = ingest.read_manifest(manifest_path).class_names
        if len(class_names) != report.num_classes:
            raise DimensionError(
                f"{manifest_path}: class_names lists {len(class_names)} names "
                f"but {report_path} has {report.num_classes} classes"
            )
    _emit([ingest.render_report_table(report, class_names)], out)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
