"""Spans around softvote's layers, recorded from the benchmark's side.

While a traced command runs, the public names the program looks up at
call time (module attributes such as ``softvote.ingest.load_predictions``
or ``softvote.ga.select_parents``) are replaced by wrappers that record a
span: name, start, end, parent span and run id (the command it belongs
to). The originals are put back after every command. Spans stay in memory
and are written once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the command spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


def _path_arg(args, kwargs, position: int):
    return args[position] if len(args) > position else kwargs["path"]


def _note_read(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_path_arg(args, kwargs, 0)), "rows": len(result.sample_ids)}


def _note_write(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_path_arg(args, kwargs, 1))}


def _note_fuse(args, kwargs, result) -> dict:
    tensor = args[0]
    return {"cells": int(tensor.size), "classifiers": tensor.shape[0], "samples": tensor.shape[1]}


# (module, attribute, span name, note). The note runs after the span closes.
PATCHES = (
    ("ingest", "read_manifest", "ingest.read_manifest", None),
    ("ingest", "load_manifest", "ingest.load_manifest", None),
    ("ingest", "load_ensemble", "ingest.load_ensemble", None),
    ("ingest", "load_predictions", "ingest.load_predictions", _note_read),
    ("ingest", "load_labels", "ingest.load_labels", _note_read),
    ("ingest", "write_ensemble", "ingest.write_ensemble", None),
    ("ingest", "write_predictions", "ingest.write_predictions", _note_write),
    ("ingest", "write_labels", "ingest.write_labels", _note_write),
    ("ingest", "write_manifest", "ingest.write_manifest", None),
    ("ingest", "read_weights", "ingest.read_weights", None),
    ("ingest", "write_weights", "ingest.write_weights", None),
    ("ingest", "read_ga_config", "ingest.read_ga_config", None),
    ("ingest", "read_generator_spec", "ingest.read_generator_spec", None),
    ("ingest", "report_to_json", "ingest.report_to_json", None),
    ("ingest", "render_report_table", "ingest.render_report_table", None),
    ("ingest", "PredictionSet", "core.validate", None),
    ("synthgen", "PredictionSet", "core.validate", None),
    ("ingest", "EnsembleInputs", "core.align", None),
    ("synthgen", "EnsembleInputs", "core.align", None),
    ("core", "EnsembleInputs", "core.align", None),
    ("core", "_fuse_tensor", "core.fuse", _note_fuse),
    ("ga", "_fuse_tensor", "core.fuse", _note_fuse),
    ("cli", "fuse_weighted", "core.fuse_weighted", None),
    ("cli", "fuse_majority", "core.fuse_majority", None),
    ("metrics", "fuse_weighted", "core.fuse_weighted", None),
    ("metrics", "fuse_majority", "core.fuse_majority", None),
    ("cli", "argmax_classes", "core.argmax_classes", None),
    ("ga", "select_parents", "ga.select_parents", None),
    ("ga", "mutate_parents", "ga.mutate_parents", None),
    ("ga", "crossover_fill", "ga.crossover_fill", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("metrics", "nll", "metrics.nll", None),
    ("synthgen", "generate", "synthgen.generate", None),
)

LAYERS = ("cli", "ingest", "core", "ga", "metrics", "synthgen")

# Every per-layer metric a traced run reports: (unit, which way is better).
# Times are summed over the traced commands unless the name says otherwise.
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.search.self_s": ("s", "lower"),
    "cli.evaluate.self_s": ("s", "lower"),
    "cli.fuse.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.command_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "ingest.read_manifest_s": ("s", "lower"),
    "ingest.load_manifest_s": ("s", "lower"),
    "ingest.load_predictions_s": ("s", "lower"),
    "ingest.load_labels_s": ("s", "lower"),
    "ingest.rows_read": ("count", "lower"),
    "ingest.bytes_read": ("bytes", "lower"),
    "ingest.read_mb_per_s": ("MB/s", "higher"),
    "ingest.write_ensemble_s": ("s", "lower"),
    "ingest.write_predictions_s": ("s", "lower"),
    "ingest.write_labels_s": ("s", "lower"),
    "ingest.bytes_written": ("bytes", "lower"),
    "ingest.write_mb_per_s": ("MB/s", "higher"),
    "core.validate_s": ("s", "lower"),
    "core.align_s": ("s", "lower"),
    "core.stack_s": ("s", "lower"),
    "core.fuse_s": ("s", "lower"),
    "core.fuse_calls": ("count", "lower"),
    "core.fuse_one_s": ("s", "lower"),
    "ga.run_s": ("s", "lower"),
    "ga.run_threads2_s": ("s", "lower"),
    "ga.generation_s": ("s", "lower"),
    "ga.select_s": ("s", "lower"),
    "ga.breed_s": ("s", "lower"),
    "ga.score_s": ("s", "lower"),
    "ga.final_rescore_s": ("s", "lower"),
    "ga.fitness_evals": ("count", "lower"),
    "ga.fused_cells": ("count", "lower"),
    "ga.nll_gap": ("nats", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.nll_s": ("s", "lower"),
    "synthgen.generate_s": ("s", "lower"),
}


@dataclass
class GARun:
    """One traced ``run_ga`` call: its span, callback times and arguments."""

    span: int
    args: tuple
    kwargs: dict
    ticks: list[float] = field(default_factory=list)
    result: object = None


class Tracer:
    def __init__(self, softvote):
        self.modules = {name: getattr(softvote, name) for name in LAYERS}
        self.spans: list[list] = []  # [name, start, end, parent, run id, note]
        self.ga_runs: list[GARun] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._run_id = ""
        self._thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self._run_id, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            # Calls from worker threads would interleave on the one stack;
            # their time stays in the span that started the threads.
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][5] = note(args, kwargs, result)
            return result

        return traced

    def _wrap_run_ga(self, fn):
        def run_ga(*args, **kwargs):
            run = GARun(len(self.spans), args, dict(kwargs))
            observer = kwargs.get("on_generation")

            def on_generation(snapshot):
                run.ticks.append(perf_counter())
                if observer is not None:
                    observer(snapshot)

            kwargs["on_generation"] = on_generation
            run.result = self.wrap("ga.run", fn)(*args, **kwargs)
            self.ga_runs.append(run)
            return run.result

        return run_ga

    # ------------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self) -> None:
        # The tensor property first: core.EnsembleInputs itself is wrapped below.
        ensemble = self.modules["core"].__dict__.get("EnsembleInputs")
        stack = getattr(ensemble, "__dict__", {}).get("tensor")
        if isinstance(stack, functools.cached_property):
            prop = functools.cached_property(self.wrap("core.stack", stack.func))
            prop.__set_name__(ensemble, "tensor")
            self._set(ensemble, "tensor", prop)
        else:
            self.missing.add("core.EnsembleInputs.tensor")
        for module, attr, name, note in PATCHES:
            owner = self.modules[module]
            if attr in owner.__dict__:
                self._set(owner, attr, self.wrap(name, owner.__dict__[attr], note))
            else:
                self.missing.add(f"{module}.{attr}")
        ga = self.modules["ga"]
        if "run_ga" in ga.__dict__:
            self._set(ga, "run_ga", self._wrap_run_ga(ga.__dict__["run_ga"]))
        else:
            self.missing.add("ga.run_ga")

    def _unpatch(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def command(self, kind: str, run_id: str):
        """Trace one CLI command: patch, open its span, restore on the way out."""
        self._run_id = run_id
        self._patch()
        try:
            index = self._open(f"cli.{kind}")
            try:
                yield
            finally:
                self._close(index)
        finally:
            self._unpatch()

    def write(self, path: Path) -> None:
        epoch = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, note in self.spans:
                record = {"name": name, "start": start - epoch, "end": end - epoch,
                          "parent": parent, "run": run_id}
                if note:
                    record["note"] = note
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def accounting_errors(spans: list[list]) -> list[str]:
    """Spans must nest inside their parents, and only commands may be roots."""
    errors = []
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent is None:
            if not name.startswith("cli."):
                errors.append(f"span {i} {name} has no command span around it")
        elif start < spans[parent][1] or end > spans[parent][2]:
            errors.append(f"span {i} {name} leaves its parent {spans[parent][0]}")
    return errors


def layer_metrics(tracer: Tracer, full_samples: int, full_classifiers: int) -> dict[str, float]:
    """Per-layer figures from the spans; times are summed over the traced run."""
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)  # inclusive time by span name
    calls: Counter = Counter()
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    in_ga = [False] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += own[i]
        self_by_layer[name.split(".")[0]] += own[i]
        if parent is not None:
            in_ga[i] = in_ga[parent] or spans[parent][0] == "ga.run"

    def note_sum(names: tuple[str, ...], key: str, ga_only: bool = False) -> int:
        return sum(s[5][key] for i, s in enumerate(spans)
                   if s[0] in names and s[5] and (in_ga[i] or not ga_only))

    reads = ("ingest.load_predictions", "ingest.load_labels")
    writes = ("ingest.write_predictions", "ingest.write_labels")
    read_s = total[reads[0]] + total[reads[1]]
    write_s = total[writes[0]] + total[writes[1]]
    bytes_read = note_sum(reads, "bytes")
    bytes_written = note_sum(writes, "bytes")
    full_fuses = [s[2] - s[1] for s in spans if s[0] == "core.fuse" and s[5]
                  and s[5]["samples"] == full_samples and s[5]["classifiers"] == full_classifiers]

    runs = tracer.ga_runs
    gaps = [b - a for run in runs for a, b in zip(run.ticks, run.ticks[1:])]
    run_s = sum(spans[r.span][2] - spans[r.span][1] for r in runs)
    rescore_s = sum(spans[r.span][2] - r.ticks[-1] for r in runs if r.ticks)

    def in_ga_total(name: str) -> float:
        return sum(s[2] - s[1] for i, s in enumerate(spans) if s[0] == name and in_ga[i])

    select_s = in_ga_total("ga.select_parents")
    breed_s = in_ga_total("ga.mutate_parents") + in_ga_total("ga.crossover_fill")
    out = {
        "cli.search.self_s": self_by_name["cli.search"],
        "cli.evaluate.self_s": self_by_name["cli.evaluate"],
        "cli.fuse.self_s": self_by_name["cli.fuse"],
        "trace.command_s": sum(s[2] - s[1] for s in spans if s[3] is None),
        "ingest.read_manifest_s": total["ingest.read_manifest"],
        "ingest.load_manifest_s": total["ingest.load_manifest"],
        "ingest.load_predictions_s": total["ingest.load_predictions"],
        "ingest.load_labels_s": total["ingest.load_labels"],
        "ingest.rows_read": note_sum(reads, "rows"),
        "ingest.bytes_read": bytes_read,
        "ingest.read_mb_per_s": bytes_read / 1e6 / read_s if read_s else 0.0,
        "ingest.write_ensemble_s": total["ingest.write_ensemble"],
        "ingest.write_predictions_s": total["ingest.write_predictions"],
        "ingest.write_labels_s": total["ingest.write_labels"],
        "ingest.bytes_written": bytes_written,
        "ingest.write_mb_per_s": bytes_written / 1e6 / write_s if write_s else 0.0,
        "core.validate_s": total["core.validate"],
        "core.align_s": total["core.align"],
        "core.stack_s": total["core.stack"],
        "core.fuse_s": total["core.fuse"],
        "core.fuse_calls": calls["core.fuse"],
        "core.fuse_one_s": statistics.median(full_fuses) if full_fuses else 0.0,
        "ga.run_s": run_s,
        "ga.generation_s": statistics.median(gaps) if gaps else 0.0,
        "ga.select_s": select_s,
        "ga.breed_s": breed_s,
        "ga.score_s": run_s - select_s - breed_s - rescore_s,
        "ga.final_rescore_s": rescore_s,
        "ga.fitness_evals": sum(1 for i, s in enumerate(spans) if s[0] == "metrics.nll" and in_ga[i]),
        "ga.fused_cells": note_sum(("core.fuse",), "cells", ga_only=True),
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.nll_s": total["metrics.nll"],
        "synthgen.generate_s": total["synthgen.generate"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out
