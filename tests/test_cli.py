import copy
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import softvote
from softvote import (
    EnsembleInputs,
    EvaluationReport,
    GAConfig,
    LabeledSamples,
    PredictionSet,
    argmax_classes,
    fuse_majority,
    fuse_weighted,
    load_manifest,
    read_report,
    read_weights,
    run_ga,
    write_ensemble,
    write_report,
)
from softvote import ingest, synthgen
from softvote.cli import cli
from softvote.errors import SoftvoteError

GEN_SPEC = {
    "num_classes": 10,
    "num_samples": 300,
    "seed": 4,
    "classifiers": [
        {"name": "strong", "accuracy": 0.9, "sharpness": 3.0},
        {"name": "mid", "accuracy": 0.7, "sharpness": 2.0},
        {"name": "weak", "accuracy": 0.55, "sharpness": 1.5},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bundle(tmp_path, runner):
    """Simulated 3-classifier bundle; returns its manifest path."""
    spec_path = tmp_path / "gen.json"
    spec_path.write_text(json.dumps(GEN_SPEC), encoding="utf-8")
    out_dir = tmp_path / "bundle"
    result = runner.invoke(cli, ["simulate", "--config", str(spec_path), "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    return out_dir / "manifest.json"


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSimulate:
    def test_writes_expected_files(self, bundle):
        names = {p.name for p in bundle.parent.iterdir()}
        assert names == {"manifest.json", "labels.csv", "strong.csv", "mid.csv", "weak.csv", ".softvote-cache"}
        entries = {p.name for p in (bundle.parent / ".softvote-cache").iterdir()}
        assert entries == {"labels.csv.entry", "strong.csv.entry", "mid.csv.entry", "weak.csv.entry"}

    def test_later_commands_parse_nothing_and_match_a_cold_cache(self, tmp_path, runner, monkeypatch):
        # simulate caches every CSV it writes, so the commands after it parse
        # no cell; with the cache removed they parse, and write the same
        # bytes and the same entries.
        calls = []
        convert = softvote.ingest._convert
        monkeypatch.setattr(softvote.ingest, "_convert", lambda *args: calls.append(1) or convert(*args))
        spec_path = tmp_path / "gen.json"
        spec_path.write_text(json.dumps(GEN_SPEC), encoding="utf-8")
        bundle = tmp_path / "bundle"
        manifest = str(bundle / "manifest.json")
        assert runner.invoke(cli, ["simulate", "--config", str(spec_path), "--out", str(bundle)]).exit_code == 0
        written = _tree_bytes(bundle / ".softvote-cache")

        def outputs(tag):
            weights, report, fused = (tmp_path / f"{tag}{name}" for name in ("w.json", "r.json", "f.csv"))
            for args in (
                ["search-weights", "--manifest", manifest, "--seed", "3", "--out", str(weights)],
                ["evaluate", "--manifest", manifest, "--weights", str(weights), "--format", "json", "--out", str(report)],
                ["fuse", "--manifest", manifest, "--weights", str(weights), "--out", str(fused)],
            ):
                result = runner.invoke(cli, args)
                assert result.exit_code == 0, result.output
            return [p.read_bytes() for p in (weights, report, fused)]

        warm = outputs("warm")
        assert calls == []
        shutil.rmtree(bundle / ".softvote-cache")
        assert outputs("cold") == warm
        assert calls
        assert _tree_bytes(bundle / ".softvote-cache") == written

    def test_same_seed_is_byte_identical(self, tmp_path, runner):
        spec_path = tmp_path / "gen.json"
        spec_path.write_text(json.dumps(GEN_SPEC), encoding="utf-8")
        for out in ("one", "two"):
            result = runner.invoke(
                cli, ["simulate", "--config", str(spec_path), "--out", str(tmp_path / out)]
            )
            assert result.exit_code == 0
        assert _tree_bytes(tmp_path / "one") == _tree_bytes(tmp_path / "two")

    def test_single_profile(self, tmp_path, runner):
        spec = dict(GEN_SPEC, classifiers=GEN_SPEC["classifiers"][:1])
        spec_path = tmp_path / "gen1.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result = runner.invoke(
            cli, ["simulate", "--config", str(spec_path), "--out", str(tmp_path / "solo")]
        )
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "solo" / "manifest.json").read_text(encoding="utf-8"))
        assert [c["name"] for c in manifest["classifiers"]] == ["strong"]

    def test_full_scale_bundle_loads_back(self, tmp_path, runner):
        spec = {
            "num_classes": 10,
            "num_samples": 4000,
            "seed": 12,
            "classifiers": [
                {"name": f"m{i}", "accuracy": 0.6 + 0.04 * i, "sharpness": 2.5}
                for i in range(8)
            ],
        }
        spec_path = tmp_path / "gen8.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = tmp_path / "big"
        result = runner.invoke(
            cli, ["simulate", "--config", str(spec_path), "--out", str(out_dir)]
        )
        assert result.exit_code == 0
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
        assert len(csvs) == 9  # 8 prediction files plus labels
        out_json = tmp_path / "big.json"
        result = runner.invoke(
            cli,
            ["evaluate", "--manifest", str(out_dir / "manifest.json"), "--out", str(out_json), "--format", "json"],
        )
        assert result.exit_code == 0
        assert read_report(out_json).sample_count == 4000

    def test_classifier_named_labels_is_a_clash(self, tmp_path, runner):
        profiles = GEN_SPEC["classifiers"]
        spec = dict(GEN_SPEC, classifiers=[profiles[0], dict(profiles[1], name="labels")])
        spec_path = tmp_path / "gen.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = tmp_path / "out"
        result = runner.invoke(cli, ["simulate", "--config", str(spec_path), "--out", str(out_dir)])
        assert result.exit_code == 1
        assert result.stderr == "error: classifier file name clash: labels.csv\n"
        assert not out_dir.exists()

    def test_a_name_subset_cannot_pick_writes_no_bundle(self, tmp_path, runner):
        # --subset splits at commas, so it could never select this classifier.
        spec = dict(GEN_SPEC, classifiers=[dict(GEN_SPEC["classifiers"][0], name="a,b")])
        spec_path = tmp_path / "gen.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = tmp_path / "out"
        result = runner.invoke(cli, ["simulate", "--config", str(spec_path), "--out", str(out_dir)])
        assert result.exit_code == 1
        message = "classifiers[0].name must hold no comma and no whitespace at either end, got 'a,b'"
        assert result.stderr == f"error: {spec_path}: {message}\n"
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "where, expected",
    [
        ("EnsembleInputs", "ValidationError: duplicate classifier name 'strong'"),
        ("read_manifest", "ValidationError: {manifest}: duplicate classifier name 'strong'"),
        ("read_generator_spec", "ConfigError: {spec}: duplicate classifier name 'strong'"),
        ("evaluate", "exit 1: error: {manifest}: duplicate classifier name 'strong'\n"),
        ("simulate", "exit 1: error: {spec}: duplicate classifier name 'strong'\n"),
    ],
    ids=["EnsembleInputs", "read_manifest", "read_generator_spec", "evaluate", "simulate"],
)
def test_a_repeated_classifier_name_is_refused_and_named(bundle, tmp_path, runner, where, expected):
    # One name is one network: --subset and EnsembleInputs.subset pick classifiers by name.
    data = json.loads(bundle.read_text(encoding="utf-8"))
    data["classifiers"][2]["name"] = "strong"  # was "weak"
    manifest = bundle.with_name("dup.json")
    manifest.write_text(json.dumps(data), encoding="utf-8")
    data = copy.deepcopy(GEN_SPEC)
    data["classifiers"][2]["name"] = "strong"
    spec = tmp_path / "dup-gen.json"
    spec.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    if where in ("evaluate", "simulate"):
        args = ["--manifest", str(manifest)] if where == "evaluate" else ["--config", str(spec), "--out", str(out)]
        result = runner.invoke(cli, [where, *args])
        got = f"exit {result.exit_code}: {result.stderr}"
    else:
        inputs = load_manifest(bundle)
        weak = inputs.classifiers[2]
        call = {
            "EnsembleInputs": lambda: EnsembleInputs(
                (*inputs.classifiers[:2], PredictionSet("strong", weak.sample_ids, weak.probs)), inputs.labels
            ),
            "read_manifest": lambda: ingest.read_manifest(manifest),
            "read_generator_spec": lambda: ingest.read_generator_spec(spec),
        }[where]
        with pytest.raises(softvote.ValidationError) as info:
            call()
        got = f"{type(info.value).__name__}: {info.value}"
    assert got == expected.format(manifest=manifest, spec=spec)
    assert not out.exists()


class TestSearchWeights:
    def test_writes_weights_and_logs_generations(self, bundle, tmp_path, runner):
        out = tmp_path / "weights.json"
        result = runner.invoke(
            cli,
            ["search-weights", "--manifest", str(bundle), "--seed", "7", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = []

        def observe(snapshot):
            fitness = snapshot.fitness
            lines.append(
                f"generation {snapshot.generation}: best_nll={fitness.min():.6f} mean_nll={np.mean(fitness):.6f}\n"
            )

        expected = run_ga(load_manifest(bundle), GAConfig(seed=7), on_generation=observe)
        lines.append(f"full-data nll: {expected.full_data_nll:.6f}\n")
        assert len(lines) == 6
        assert result.stderr == "".join(lines)
        weights, value = read_weights(out)
        assert weights.tobytes() == expected.weights.tobytes()
        assert value == expected.full_data_nll

    def test_seed_makes_output_byte_identical(self, bundle, tmp_path, runner):
        paths = [tmp_path / "w1.json", tmp_path / "w2.json"]
        for p in paths:
            result = runner.invoke(
                cli,
                ["search-weights", "--manifest", str(bundle), "--seed", "7", "--out", str(p)],
            )
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_file_is_honored(self, bundle, tmp_path, runner):
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({"generations": 2, "seed": 3}), encoding="utf-8")
        out = tmp_path / "w.json"
        result = runner.invoke(
            cli,
            ["search-weights", "--manifest", str(bundle), "--config", str(config), "--out", str(out)],
        )
        assert result.exit_code == 0
        assert result.stderr.count("generation ") == 2

    @pytest.mark.parametrize("value", ["abc", True, 10**400])
    def test_non_real_config_value_is_validation_error(self, bundle, tmp_path, runner, value):
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({"elite_fraction": value}), encoding="utf-8")
        out = tmp_path / "w.json"
        result = runner.invoke(
            cli,
            ["search-weights", "--manifest", str(bundle), "--config", str(config), "--out", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")
        assert "ga.json" in result.stderr and "elite_fraction" in result.stderr
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, limit",
        [("population_size", 10**30, "[2, 100000]"), ("population_size", 10**12, "[2, 100000]"),
         ("generations", 10**30, "[1, 100000]")],
    )
    def test_oversized_count_fails_before_loading(self, tmp_path, runner, key, value, limit):
        # The manifest does not exist, so a config that passed would end in an
        # i/o error (exit 2) before any search could allocate or run.
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        result = runner.invoke(
            cli,
            ["search-weights", "--manifest", str(tmp_path / "missing.json"), "--config", str(config),
             "--out", str(tmp_path / "w.json")],
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: {config}: bad GA config: {key} must be in {limit}, got {value}\n"

    def test_config_keeping_one_parent_fails_before_loading(self, tmp_path, runner):
        # 9 chromosomes keep floor(0.2 * 9) = 1 elite and floor(0.1 * 8) = 0
        # extras: one parent cannot cross over. The manifest is never read.
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({"population_size": 9}), encoding="utf-8")
        out = tmp_path / "w.json"
        result = runner.invoke(
            cli,
            ["search-weights", "--manifest", str(tmp_path / "missing.json"), "--config", str(config),
             "--out", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {config}: bad GA config: population_size 9 with elite_fraction 0.2 and "
            "extra_parent_fraction 0.1 selects 1 parent; crossover needs at least 2\n"
        )
        assert not out.exists()


class TestEvaluate:
    def test_majority_table_to_stdout(self, bundle, runner):
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle)])
        assert result.exit_code == 0
        assert "NLL: " in result.stdout
        assert "Accuracy: " in result.stdout
        assert "C9" in result.stdout

    def test_json_report_file(self, bundle, tmp_path, runner):
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli,
            ["evaluate", "--manifest", str(bundle), "--out", str(out), "--format", "json"],
        )
        assert result.exit_code == 0
        report = read_report(out)
        assert report.sample_count == 300
        assert report.classifier_names == ("strong", "mid", "weak")

    def test_json_report_to_the_longest_file_name(self, bundle, tmp_path, runner):
        if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
            pytest.skip("file names here are limited to fewer than 255 bytes")
        out = tmp_path / ("r" * 250 + ".json")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle), "--out", str(out), "--format", "json"])
        assert result.exit_code == 0, result.output
        assert read_report(out).sample_count == 300
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "gen.json", out.name]

    def test_weighted_never_worse_than_majority(self, bundle, tmp_path, runner):
        weights_path = tmp_path / "w.json"
        assert (
            runner.invoke(
                cli,
                ["search-weights", "--manifest", str(bundle), "--seed", "1", "--out", str(weights_path)],
            ).exit_code
            == 0
        )
        reports = {}
        for tag, extra in {"majority": [], "weighted": ["--weights", str(weights_path)]}.items():
            out = tmp_path / f"{tag}.json"
            result = runner.invoke(
                cli,
                ["evaluate", "--manifest", str(bundle), "--out", str(out), "--format", "json", *extra],
            )
            assert result.exit_code == 0
            reports[tag] = read_report(out)
        assert reports["weighted"].nll <= reports["majority"].nll + 1e-12

    def test_subset_reindexes_weights_by_name(self, bundle, tmp_path, runner):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(
            json.dumps({"weights": [0.7, 0.2, 0.1], "full_data_nll": 0.5}), encoding="utf-8"
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out, subset in ((out_a, "strong,weak"), (out_b, "weak,strong")):
            result = runner.invoke(
                cli,
                [
                    "evaluate",
                    "--manifest",
                    str(bundle),
                    "--weights",
                    str(weights_path),
                    "--subset",
                    subset,
                    "--out",
                    str(out),
                    "--format",
                    "json",
                ],
            )
            assert result.exit_code == 0, result.output
        a, b = read_report(out_a), read_report(out_b)
        # same fusion regardless of listing order: weights follow the names
        assert a.nll == pytest.approx(b.nll, abs=1e-12)
        assert a.classifier_names == ("strong", "weak")
        assert b.classifier_names == ("weak", "strong")

    def test_subset_majority(self, bundle, tmp_path, runner):
        out = tmp_path / "sub.json"
        result = runner.invoke(
            cli,
            ["evaluate", "--manifest", str(bundle), "--subset", "strong,mid", "--out", str(out), "--format", "json"],
        )
        assert result.exit_code == 0
        assert read_report(out).classifier_names == ("strong", "mid")

    def test_unknown_subset_name_fails_validation(self, bundle, runner):
        result = runner.invoke(
            cli, ["evaluate", "--manifest", str(bundle), "--subset", "ghost"]
        )
        assert result.exit_code == 1
        assert "unknown classifier" in result.stderr

    def test_weight_length_mismatch(self, bundle, tmp_path, runner):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(
            json.dumps({"weights": [0.7, 0.3], "full_data_nll": 0.5}), encoding="utf-8"
        )
        result = runner.invoke(
            cli, ["evaluate", "--manifest", str(bundle), "--weights", str(weights_path)]
        )
        assert result.exit_code == 1
        assert "3 classifiers" in result.stderr

    def test_quoted_ids_written_by_write_ensemble_are_served_from_the_cache(self, tmp_path, runner, monkeypatch):
        # The ids are written quoted, and the entries stored beside them are the ones a cold load stores.
        ids = ("a,b", 'q"x', '"y"', "plain", "c,d,e")
        rng = np.random.default_rng(5)
        inputs = EnsembleInputs(
            tuple(PredictionSet(f"m{k}", ids, rng.dirichlet(np.ones(3), size=len(ids))) for k in range(2)),
            LabeledSamples(ids, [0, 1, 2, 0, 1]),
        )
        manifest = write_ensemble(inputs, tmp_path / "quoted")
        cache = manifest.parent / ".softvote-cache"
        written = _tree_bytes(cache)
        calls = []
        convert = ingest._convert
        monkeypatch.setattr(ingest, "_convert", lambda *args: calls.append(1) or convert(*args))

        def report(tag):
            out = tmp_path / f"{tag}.json"
            result = runner.invoke(cli, ["evaluate", "--manifest", str(manifest), "--format", "json", "--out", str(out)])
            assert result.exit_code == 0, result.output
            return out.read_bytes()

        warm = report("warm")
        assert calls == []
        shutil.rmtree(cache)
        assert report("cold") == warm
        assert len(calls) == 3
        assert _tree_bytes(cache) == written


class TestFuse:
    def test_equal_weights_match_majority_bytes(self, bundle, tmp_path, runner):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(
            json.dumps({"weights": [1.0, 1.0, 1.0], "full_data_nll": 0.5}), encoding="utf-8"
        )
        out_major = tmp_path / "major.csv"
        out_equal = tmp_path / "equal.csv"
        assert (
            runner.invoke(cli, ["fuse", "--manifest", str(bundle), "--out", str(out_major)]).exit_code
            == 0
        )
        assert (
            runner.invoke(
                cli,
                ["fuse", "--manifest", str(bundle), "--weights", str(weights_path), "--out", str(out_equal)],
            ).exit_code
            == 0
        )
        assert out_major.read_bytes() == out_equal.read_bytes()

    def test_single_classifier_fuse_echoes_input(self, tmp_path, runner):
        spec = dict(GEN_SPEC, classifiers=GEN_SPEC["classifiers"][:1])
        spec_path = tmp_path / "gen1.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = tmp_path / "solo"
        assert (
            runner.invoke(cli, ["simulate", "--config", str(spec_path), "--out", str(out_dir)]).exit_code
            == 0
        )
        fused_path = tmp_path / "fused.csv"
        assert (
            runner.invoke(
                cli, ["fuse", "--manifest", str(out_dir / "manifest.json"), "--out", str(fused_path)]
            ).exit_code
            == 0
        )
        source = (out_dir / "strong.csv").read_text(encoding="utf-8").splitlines()
        fused = fused_path.read_text(encoding="utf-8").splitlines()
        assert len(source) == len(fused)
        # identical probabilities, one extra predicted column
        for src_line, fused_line in zip(source[1:], fused[1:]):
            assert fused_line.rsplit(",", 1)[0] == src_line

    def test_fused_rows_reload_as_distributions(self, bundle, tmp_path, runner):
        out = tmp_path / "fused.csv"
        assert (
            runner.invoke(cli, ["fuse", "--manifest", str(bundle), "--out", str(out)]).exit_code == 0
        )
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sample_id," + ",".join(f"p{i}" for i in range(10)) + ",predicted"
        assert len(lines) == 301
        for line in lines[1:]:
            cells = line.split(",")
            probs = [float(x) for x in cells[1:-1]]
            assert abs(sum(probs) - 1.0) <= 1e-9
            assert int(cells[-1]) == int(np.argmax(probs))


    @pytest.mark.parametrize("with_weights", [False, True])
    def test_subset_matches_in_process_fusion(self, bundle, tmp_path, runner, with_weights):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(
            json.dumps({"weights": [0.7, 0.2, 0.1], "full_data_nll": 0.5}), encoding="utf-8"
        )
        out = tmp_path / "fused.csv"
        args = ["fuse", "--manifest", str(bundle), "--subset", "weak,strong", "--out", str(out)]
        if with_weights:
            args += ["--weights", str(weights_path)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        inputs = load_manifest(bundle).subset(["weak", "strong"])
        # weights follow the classifier names: weak is 0.1, strong is 0.7
        expected = fuse_weighted(inputs, [0.1, 0.7]) if with_weights else fuse_majority(inputs)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == inputs.num_samples + 1
        for sid, line, row, pred in zip(inputs.sample_ids, lines[1:], expected, argmax_classes(expected)):
            cells = line.split(",")
            assert cells[0] == sid
            assert [float(x) for x in cells[1:-1]] == row.tolist()
            assert int(cells[-1]) == int(pred)

    def test_unknown_subset_name_fails_validation(self, bundle, runner):
        result = runner.invoke(cli, ["fuse", "--manifest", str(bundle), "--subset", "strong,ghost"])
        assert result.exit_code == 1
        assert "unknown classifier" in result.stderr

    def test_odd_ids_are_quoted_and_stdout_matches_file(self, tmp_path, runner):
        ids = ("a,b", 'q"q', '"x"', "l\nm", "c\rd", "plain")
        rng = np.random.default_rng(3)
        inputs = EnsembleInputs(
            tuple(PredictionSet(f"m{k}", ids, rng.dirichlet(np.ones(4), size=len(ids))) for k in range(2)),
            LabeledSamples(ids, [0, 1, 2, 3, 0, 1]),
        )
        manifest = write_ensemble(inputs, tmp_path / "odd")
        out = tmp_path / "fused.csv"
        result = runner.invoke(cli, ["fuse", "--manifest", str(manifest), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", "p0", "p1", "p2", "p3", "predicted"]
        assert tuple(row[0] for row in rows[1:]) == ids
        assert {len(row) for row in rows} == {4 + 2}
        to_stdout = runner.invoke(cli, ["fuse", "--manifest", str(manifest), "--out", "-"])
        assert to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == out.read_bytes()


class TestReportCommand:
    def _report_file(self, bundle, tmp_path, runner):
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli, ["evaluate", "--manifest", str(bundle), "--out", str(out), "--format", "json"]
        )
        assert result.exit_code == 0
        return out

    def test_table_rendering_with_default_posture_names(self, bundle, tmp_path, runner):
        report_path = self._report_file(bundle, tmp_path, runner)
        result = runner.invoke(cli, ["report", str(report_path)])
        assert result.exit_code == 0
        assert "C0 = safe driving" in result.stdout
        assert "C9 = talk to passenger" in result.stdout

    def test_table_without_a_manifest_has_no_legend_unless_there_are_ten_classes(self, tmp_path, runner):
        three = EvaluationReport(
            nll=0.30000000000000004,
            accuracy_percent=62.5,
            confusion=[[100.0, 0.0, 0.0], [25.0, 75.0, 0.0], [0.0, 0.0, 0.0]],
            per_class_accuracy=[100.0, 75.0, 0.0],
            classifier_names=("a", "b"),
            sample_count=8,
        )
        confusion = np.eye(10) * 100.0
        confusion[9, 8:] = 50.0
        ten = EvaluationReport(
            nll=0.125,
            accuracy_percent=95.0,
            confusion=confusion,
            per_class_accuracy=np.diag(confusion),
            classifier_names=("net_0", "net_1"),
            sample_count=20,
        )
        tables = []
        for report in (three, ten):
            path = tmp_path / "r.json"
            write_report(report, path)
            result = runner.invoke(cli, ["report", str(path)])
            assert result.exit_code == 0, result.output
            tables.append(result.stdout)
        assert tables[0] == (
            "NLL: 0.3000\nAccuracy: 62.50\nSamples: 8\nClassifiers: a, b\n\n"
            "Confusion (row %, actual class x predicted class):\n"
            "            C0     C1     C2\n"
            "C0      100.00   0.00   0.00\n"
            "C1       25.00  75.00   0.00\n"
            "C2           -      -      -\n"
            "\nno samples with actual class: C2\n"
        )
        rows = [
            f"C{i}     " + "".join(f"{'100.00' if j == i else '0.00':>7}" for j in range(10)) for i in range(9)
        ]
        assert tables[1] == (
            "NLL: 0.1250\nAccuracy: 95.00\nSamples: 20\nClassifiers: net_0, net_1\n\n"
            "Confusion (row %, actual class x predicted class):\n"
            "            C0     C1     C2     C3     C4     C5     C6     C7     C8     C9\n"
            + "".join(row + "\n" for row in rows)
            + "C9        0.00   0.00   0.00   0.00   0.00   0.00   0.00   0.00  50.00  50.00\n"
            "\nC0 = safe driving\nC1 = text right\nC2 = talk right\nC3 = text left\nC4 = talk left\n"
            "C5 = adjust radio\nC6 = drink\nC7 = reach behind\nC8 = hair and makeup\nC9 = talk to passenger\n"
        )

    def test_manifest_supplies_class_names(self, bundle, tmp_path, runner):
        report_path = self._report_file(bundle, tmp_path, runner)
        result = runner.invoke(
            cli, ["report", str(report_path), "--manifest", str(bundle)]
        )
        assert result.exit_code == 0
        assert "C6 = drink" in result.stdout

    def test_manifest_with_other_class_count_names_both_files(self, bundle, tmp_path, runner):
        report_path = self._report_file(bundle, tmp_path, runner)
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        manifest.update(num_classes=2, class_names=["a", "b"])
        other = tmp_path / "other.json"
        other.write_text(json.dumps(manifest), encoding="utf-8")
        result = runner.invoke(cli, ["report", str(report_path), "--manifest", str(other)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {other}: class_names lists 2 names but {report_path} has 10 classes\n"

    def test_json_passthrough_is_stable(self, bundle, tmp_path, runner):
        report_path = self._report_file(bundle, tmp_path, runner)
        result = runner.invoke(cli, ["report", str(report_path), "--format", "json"])
        assert result.exit_code == 0
        assert result.stdout.encode() == report_path.read_bytes()

    def test_malformed_report_fails_validation(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        result = runner.invoke(cli, ["report", str(bad)])
        assert result.exit_code == 1


class TestExitCodes:
    def test_missing_manifest_is_io_error(self, tmp_path, runner):
        result = runner.invoke(cli, ["evaluate", "--manifest", str(tmp_path / "none.json")])
        assert result.exit_code == 2

    def test_invalid_manifest_is_validation_error(self, tmp_path, runner):
        p = tmp_path / "m.json"
        p.write_text("{oops", encoding="utf-8")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(p)])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_unwritable_out_is_io_error(self, bundle, tmp_path, runner):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        result = runner.invoke(
            cli,
            ["evaluate", "--manifest", str(bundle), "--out", str(blocker / "r.json")],
        )
        assert result.exit_code == 2

    def test_out_in_a_missing_directory_names_the_out_path(self, bundle, tmp_path, runner):
        out = tmp_path / "missing" / "r.json"
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize(
        "error, code, line", [(SoftvoteError("bad"), 1, "error: bad"), (OSError("gone"), 2, "i/o error: gone")]
    )
    @pytest.mark.parametrize("name", sorted(cli.commands))
    def test_every_command_maps_its_errors_to_an_exit_code(self, monkeypatch, capsys, name, error, code, line):
        # Run as perfbench's in-process runner runs a command: the exit must be a SystemExit.
        command = cli.commands[name]

        def fail(**params):
            raise error

        monkeypatch.setattr(command, "callback", fail)
        args = [name]
        for param in command.params:
            if param.required:
                args += [param.opts[0], "x"] if isinstance(param, click.Option) else ["x"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args=args, prog_name="softvote", standalone_mode=False)
        assert exit_info.value.code == code
        assert capsys.readouterr().err == line + "\n"

    def test_corrupt_predictions_is_validation_error(self, bundle, tmp_path, runner):
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        victim = bundle.parent / manifest["classifiers"][0]["path"]
        text = victim.read_text(encoding="utf-8").splitlines()
        text[1] = text[1].rsplit(",", 1)[0] + ",0.9"  # break the row sum
        victim.write_text("\n".join(text) + "\n", encoding="utf-8")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle)])
        assert result.exit_code == 1


class TestSmallInputsBeforeData:
    """Flags and small files are checked before any CSV is parsed.

    Each bundle here lacks one predictions CSV, or holds one with a bad
    header, so a command that parsed the CSVs first would fail on that file.
    """

    @pytest.fixture
    def broken(self, bundle):
        (bundle.parent / "mid.csv").unlink()
        return bundle

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"weights": "x", "full_data_nll": 0.1}, "{path}: weights must be an array, got 'x'"),
            (
                {"weights": [0.5, 0.5], "full_data_nll": 0.1},
                "{path}: has 2 weights but {manifest} lists 3 classifiers",
            ),
            ({"weights": [-1.0, 2.0, 1.0], "full_data_nll": 0.1}, "{path}: weights must be non-negative"),
            ({"weights": [0.0, 0.0, 0.0], "full_data_nll": 0.1}, "{path}: weights must not sum to zero"),
            (
                {"weights": [1e-13, 0.0, 0.0], "full_data_nll": 0.1},
                "{path}: weights must sum to more than 1e-12, got 1e-13",
            ),
            ({"weights": [1e308, 1e308, 1.0], "full_data_nll": 0.1}, "{path}: weights must have a finite sum"),
        ],
        ids=["type", "count", "negative", "zero-sum", "tiny-sum", "infinite-sum"],
    )
    def test_weights_file(self, broken, tmp_path, runner, command, data, message):
        weights = tmp_path / "x.json"
        weights.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(cli, [command, "--manifest", str(broken), "--weights", str(weights)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {message.format(path=weights, manifest=broken)}\n"

    def test_weights_file_that_repeats_a_key(self, broken, tmp_path, runner):
        weights = tmp_path / "w.json"
        text = '{"weights": [1.0, 0.0, 0.0], "weights": [0.0, 1.0, 1.0], "full_data_nll": 0.5}'
        weights.write_text(text, encoding="utf-8")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(broken), "--weights", str(weights)])
        assert (result.exit_code, result.stderr) == (1, f"error: {weights}: invalid JSON: repeated key 'weights'\n")

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    def test_subset_weights_sum_to_zero(self, broken, tmp_path, runner, command):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": [0.0, 0.0, 1.0], "full_data_nll": 0.1}), encoding="utf-8")
        args = [command, "--manifest", str(broken), "--weights", str(weights), "--subset", "strong, mid"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert result.stderr == f"error: {weights}: subset strong,mid: weights must not sum to zero\n"

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    def test_empty_subset(self, broken, runner, command):
        result = runner.invoke(cli, [command, "--manifest", str(broken), "--subset", " , "])
        assert result.exit_code == 1
        assert result.stderr == "error: subset needs at least one classifier name\n"

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    @pytest.mark.parametrize("subset", ["nosuch", "strong,nosuch"])
    def test_unknown_subset_name(self, bundle, runner, command, subset):
        (bundle.parent / "mid.csv").write_text("id,x\na,1\n", encoding="utf-8")
        result = runner.invoke(cli, [command, "--manifest", str(bundle), "--subset", subset])
        assert result.exit_code == 1
        assert result.stderr == "error: unknown classifier 'nosuch'\n"

    def test_search_seed(self, broken, tmp_path, runner):
        out = tmp_path / "w.json"
        result = runner.invoke(
            cli, ["search-weights", "--manifest", str(broken), "--seed", "-1", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert result.stderr == "error: seed must be in [0, 2**64), got -1\n"
        assert not out.exists()


class TestThinnedLoad:
    """``--subset`` reads the kept classifiers' CSVs and the labels, and no other CSV."""

    @staticmethod
    def _break(bundle, fault):
        mid = bundle.parent / "mid.csv"
        if fault == "deleted":
            mid.unlink()
        else:
            mid.write_text("id,x\na,1\n", encoding="utf-8")

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    @pytest.mark.parametrize("fault", ["deleted", "bad-header"])
    def test_unselected_csv_is_not_read(self, bundle, tmp_path, runner, command, fault):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": [0.7, 0.2, 0.1], "full_data_nll": 0.5}), encoding="utf-8")
        args = [command, "--manifest", str(bundle), "--weights", str(weights), "--subset", "weak,strong"]
        if command == "evaluate":
            args += ["--format", "json"]
        intact = runner.invoke(cli, args)
        assert intact.exit_code == 0, intact.output
        self._break(bundle, fault)
        thinned = runner.invoke(cli, args)
        assert thinned.exit_code == 0, thinned.output
        assert thinned.stdout_bytes == intact.stdout_bytes
        # Without --subset every listed CSV is still read and checked.
        full = runner.invoke(cli, [command, "--manifest", str(bundle)])
        assert full.exit_code == (2 if fault == "deleted" else 1)
        assert "mid.csv" in full.stderr

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    @pytest.mark.parametrize("fault", ["deleted", "bad-header"])
    def test_repeated_name_before_any_csv(self, bundle, runner, command, fault):
        self._break(bundle, fault)
        result = runner.invoke(cli, [command, "--manifest", str(bundle), "--subset", "strong,strong"])
        assert result.exit_code == 1
        assert result.stderr == "error: subset names classifier 'strong' twice\n"

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    def test_loads_each_kept_classifier_once(self, bundle, runner, monkeypatch, command):
        loaded = []
        load_predictions = ingest.load_predictions

        def counted(path, num_classes, name=None):
            loaded.append(name)
            return load_predictions(path, num_classes, name=name)

        monkeypatch.setattr(ingest, "load_predictions", counted)
        result = runner.invoke(cli, [command, "--manifest", str(bundle), "--subset", "weak,strong"])
        assert result.exit_code == 0, result.output
        assert loaded == ["weak", "strong"]
        loaded.clear()
        assert runner.invoke(cli, [command, "--manifest", str(bundle)]).exit_code == 0
        assert loaded == ["strong", "mid", "weak"]


class TestMalformedInputsExitOne:
    def _corrupt_cell(self, bundle, value):
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        victim = bundle.parent / manifest["classifiers"][1]["path"]
        lines = victim.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[2] = value
        lines[3] = ",".join(cells)
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return victim

    @pytest.mark.parametrize(
        "value, reason",
        [("nan", "non-finite probability"), ("inf", r"probability outside \[0, 1\]")],
    )
    @pytest.mark.parametrize("command", ["evaluate", "search-weights", "fuse"])
    def test_non_finite_cell_names_file_and_row(self, bundle, tmp_path, runner, value, reason, command):
        victim = self._corrupt_cell(bundle, value)
        out = ["--out", str(tmp_path / "w.json")] if command == "search-weights" else []
        result = runner.invoke(cli, [command, "--manifest", str(bundle)] + out)
        assert result.exit_code == 1
        assert re.search(f"^error: {re.escape(str(victim))}: row 4: {reason}$", result.stderr, re.M)

    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    def test_missing_label_names_the_labels_csv(self, bundle, runner, command):
        labels = bundle.parent / "labels.csv"
        lines = labels.read_text(encoding="utf-8").splitlines(keepends=True)
        labels.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")  # drops s001
        result = runner.invoke(cli, [command, "--manifest", str(bundle)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {labels}: sample 's001' has no ground-truth label\n"

    def test_string_num_classes_in_manifest(self, bundle, runner):
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        manifest["num_classes"] = "x"
        bundle.write_text(json.dumps(manifest), encoding="utf-8")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle)])
        assert result.exit_code == 1
        assert "num_classes must be an integer, got 'x'" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"classifiers": 5}, "classifiers must be an array, got 5"),
            ({"class_names": 5}, "class_names must be an array, got 5"),
            ({"class_names": [1, None] + [f"c{i}" for i in range(8)]}, "class_names[0] must be a string, got 1"),
            ({"labels": 5}, "labels must be a string, got 5"),
        ],
    )
    @pytest.mark.parametrize("command", ["evaluate", "fuse", "search-weights"])
    def test_bad_manifest_structure(self, bundle, tmp_path, runner, change, message, command):
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        manifest.update(change)
        bundle.write_text(json.dumps(manifest), encoding="utf-8")
        out = ["--out", str(tmp_path / "w.json")] if command == "search-weights" else []
        result = runner.invoke(cli, [command, "--manifest", str(bundle)] + out)
        assert result.exit_code == 1
        assert result.stderr == f"error: {bundle}: {message}\n"

    def test_null_classifier_name_in_manifest(self, bundle, runner):
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        manifest["classifiers"][1]["name"] = None
        bundle.write_text(json.dumps(manifest), encoding="utf-8")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {bundle}: classifiers[1].name must be a string, got None\n"

    @pytest.mark.parametrize(
        "kind, where, value, key",
        [
            ("manifest", ["labels"], "lab\0els.csv", "labels_path"),
            ("manifest", ["classifiers", 0, "path"], "str\0ong.csv", "classifiers[0].path"),
            ("spec", ["classifiers", 0, "name"], "\ud800", "classifiers[0].name"),
            ("manifest", ["classifiers", 0, "name"], "\ud800", "classifiers[0].name"),
            ("manifest", ["class_names", 3], "\ud800", "class_names[3]"),
            ("manifest", ["classifiers", 0, "path"], "\ud800.csv", "classifiers[0].path"),
            ("report", ["classifier_names", 1], "\ud800", "classifier_names[1]"),
        ],
        ids=["nul-labels", "nul-path", "surrogate-spec-name", "surrogate-name", "surrogate-class-name",
             "surrogate-path", "surrogate-report-name"],
    )
    def test_a_string_no_file_can_hold_is_refused_and_named(self, bundle, tmp_path, runner, kind, where, value, key):
        # json decodes the escape "\ud800" to a lone surrogate, which UTF-8
        # cannot encode; a file path cannot hold a NUL.
        report, sim = tmp_path / "report.json", tmp_path / "sim"
        args = ["evaluate", "--manifest", str(bundle), "--format", "json", "--out", str(report)]
        assert runner.invoke(cli, args).exit_code == 0
        file = {"manifest": bundle, "spec": tmp_path / "gen.json", "report": report}[kind]
        doc = json.loads(file.read_text(encoding="utf-8"))
        _at(doc, where[:-1])[where[-1]] = value
        file.write_text(json.dumps(doc), encoding="utf-8")
        commands = {
            "manifest": [[c, "--manifest", str(bundle)] for c in ("evaluate", "fuse")]
            + [["search-weights", "--manifest", str(bundle), "--out", str(tmp_path / "w.json")]],
            "spec": [["simulate", "--config", str(file), "--out", str(sim)]],
            "report": [["report", str(report)]],
        }[kind]
        for args in commands:
            result = runner.invoke(cli, args)
            assert isinstance(result.exception, SystemExit), result.exc_info
            assert result.exit_code == 1, (args, result.output)
            assert result.stderr.startswith(f"error: {file}: {key} must ")
            assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.output
        assert not sim.exists()

    def test_manifest_that_is_not_utf8(self, bundle, runner):
        bundle.write_bytes(bundle.read_bytes().replace(b'"labels.csv"', b'"labels\xff.csv"'))
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {bundle}: not UTF-8 text (invalid start byte at byte ")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": 1.9}, "seed must be an integer, got 1.9"),
            ({"accuracy": "abc"}, "classifiers[0].accuracy must be a finite number, got 'abc'"),
            ({"classifiers": 5}, "classifiers must be an array, got 5"),
            ({"num_classes": 0}, "num_classes must be in [1, 1000], got 0"),
            ({"accuracy": 1.5}, "classifiers[0].accuracy must be in (0, 1], got 1.5"),
            ({"num_samples": 10**12}, "num_samples must be in [1, 1000000], got 1000000000000"),
            ({"num_classes": 10**9}, "num_classes must be in [1, 1000], got 1000000000"),
        ],
    )
    def test_bad_generator_spec_value(self, tmp_path, runner, monkeypatch, change, message):
        # A spec that passed would reach generate(), which must never see an oversized count.
        monkeypatch.setattr(synthgen, "generate", lambda spec: pytest.fail(f"generated {spec}"))
        spec = json.loads(json.dumps(GEN_SPEC))
        if "accuracy" in change:
            spec["classifiers"][0]["accuracy"] = change["accuracy"]
        else:
            spec.update(change)
        spec_path = tmp_path / "gen.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = tmp_path / "out"
        result = runner.invoke(cli, ["simulate", "--config", str(spec_path), "--out", str(out_dir)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {spec_path}: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"nll": "abc"}, "nll must be a finite number, got 'abc'"),
            ({"sample_count": 2.7}, "sample_count must be an integer, got 2.7"),
            ({"sample_count": True}, "sample_count must be an integer, got True"),
            ({"classifier_names": 5}, "classifier_names must be an array, got 5"),
            ({"nll": -1.0}, "nll must be a non-negative real, got -1.0"),
            ({"accuracy_percent": 101.0}, "accuracy_percent out of [0, 100]: 101.0"),
        ],
    )
    def test_bad_report_value(self, bundle, tmp_path, runner, change, message):
        report = tmp_path / "report.json"
        args = ["evaluate", "--manifest", str(bundle), "--format", "json", "--out", str(report)]
        assert runner.invoke(cli, args).exit_code == 0
        data = json.loads(report.read_text(encoding="utf-8"))
        data.update(change)
        report.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(cli, ["report", str(report)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {report}: {message}\n"

    def test_bad_weights_values(self, bundle, tmp_path, runner):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": [True, "0.5", 1.0], "full_data_nll": "0.3"}), encoding="utf-8")
        for command in ("evaluate", "fuse"):
            result = runner.invoke(cli, [command, "--manifest", str(bundle), "--weights", str(weights)])
            assert result.exit_code == 1
            assert result.stderr == f"error: {weights}: weights[0] must be a finite number, got True\n"


def _run_softvote(args, flags=(), stdin=b""):
    """The CLI run as its own Python process, fed ``stdin`` through a pipe; fails after a minute."""
    env = dict(os.environ, PYTHONPATH=str(Path(softvote.__file__).parents[1]))
    command = [sys.executable, *flags, "-m", "softvote.cli", *args]
    return subprocess.run(command, input=stdin, capture_output=True, env=env, timeout=60)


def _one_classifier_bundle(tmp_path, predictions_path):
    """A 2-class manifest listing one classifier at ``predictions_path`` and a one-row labels file."""
    (tmp_path / "labels.csv").write_text("sample_id,label\ns1,0\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    classifiers = [{"name": "m", "path": predictions_path}]
    manifest.write_text(
        json.dumps({"num_classes": 2, "class_names": ["a", "b"], "classifiers": classifiers, "labels": "labels.csv"}),
        encoding="utf-8",
    )
    return manifest


class TestSubprocess:
    def test_inf_and_minus_inf_row_under_warnings_as_errors(self, tmp_path):
        # Such a row sums to NaN; numpy must not warn about it, or -W error
        # turns the warning into a traceback.
        (tmp_path / "m.csv").write_text("sample_id,p0,p1\ns1,inf,-inf\n", encoding="utf-8")
        manifest = _one_classifier_bundle(tmp_path, "m.csv")
        result = _run_softvote(["evaluate", "--manifest", str(manifest)], flags=["-W", "error"])
        assert result.returncode == 1
        assert result.stderr.decode() == f"error: {tmp_path / 'm.csv'}: row 2: probability outside [0, 1]\n"

    def test_bad_row_piped_to_dev_stdin_names_its_row(self, tmp_path):
        # A pipe can be read once; the row error comes from the text that read gave.
        manifest = _one_classifier_bundle(tmp_path, "/dev/stdin")
        bad = b"sample_id,p0,p1\ns1,0.5,0.5\ns2,0.7,0.7\n"
        result = _run_softvote(["evaluate", "--manifest", str(manifest)], stdin=bad)
        assert result.returncode == 1
        assert re.fullmatch(r"error: /dev/stdin: row 3: probabilities sum to 1\.4 \(.*\)\n", result.stderr.decode())


# Values a fuzzed JSON document gets in place of one of its values, or under
# an extra key; each draw is a fresh copy.
FUZZ_VALUES = st.sampled_from(
    [None, True, False, "x", "", "\ud800", "a\x00b", [], [0.5], {}, {"k": 1}, float("nan"), float("inf"),
     float("-inf"), 1e308, 10**30]
).map(copy.deepcopy)


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _paths(doc, path=()):
    """The key path of ``doc`` and of every value inside it, as tuples of keys and indices."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _mutated(doc, data):
    """``doc`` with one or two values replaced, deleted or added, as Hypothesis draws them."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        op = data.draw(st.sampled_from(["set", "delete", "extra"]))
        if op == "extra":
            objects = [p for p in paths if isinstance(_at(doc, p), dict)]
            if objects:
                _at(doc, data.draw(st.sampled_from(objects)))["extra"] = data.draw(FUZZ_VALUES)
            continue
        path = data.draw(st.sampled_from(paths))
        if not path:  # the document itself can be replaced but not deleted
            if op == "set":
                doc = data.draw(FUZZ_VALUES)
        elif op == "set":
            _at(doc, path[:-1])[path[-1]] = data.draw(FUZZ_VALUES)
        else:
            del _at(doc, path[:-1])[path[-1]]
    return doc


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 3-classifier, 20-sample, 3-class bundle, plus a valid document of each JSON kind."""
    root = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    spec = {
        "num_classes": 3,
        "num_samples": 20,
        "seed": 2,
        "classifiers": [{"name": n, "accuracy": a, "sharpness": 2.0} for n, a in (("a", 0.9), ("b", 0.7), ("c", 0.5))],
    }
    (root / "gen.json").write_text(json.dumps(spec), encoding="utf-8")
    assert runner.invoke(cli, ["simulate", "--config", str(root / "gen.json"), "--out", str(root / "b")]).exit_code == 0
    report = root / "report.json"
    args = ["evaluate", "--manifest", str(root / "b" / "manifest.json"), "--format", "json", "--out", str(report)]
    assert runner.invoke(cli, args).exit_code == 0
    docs = {
        "generator spec": spec,
        "manifest": json.loads((root / "b" / "manifest.json").read_text(encoding="utf-8")),
        "weights": {"weights": [0.5, 0.3, 0.2], "full_data_nll": 0.5},
        "report": json.loads(report.read_text(encoding="utf-8")),
        "GA config": {"population_size": 6, "elite_fraction": 0.5, "extra_parent_fraction": 0.5,
                      "mutation_rate": 0.2, "generations": 2, "fitness_sample_fraction": 0.5, "seed": 1},
    }
    (root / "ga.json").write_text(json.dumps(docs["GA config"]), encoding="utf-8")
    return root, docs


class TestJsonFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_json_exits_cleanly_naming_the_file(self, fuzz_files, data):
        root, docs = fuzz_files
        kind = data.draw(st.sampled_from(sorted(docs)))
        # The manifest sits in the bundle, where the paths it lists resolve.
        path = root / ("b/fuzzed.json" if kind == "manifest" else "fuzzed.json")
        path.write_text(json.dumps(_mutated(docs[kind], data)), encoding="utf-8")
        manifest, report, config, out = (str(root / f) for f in ("b/manifest.json", "report.json", "ga.json", "w.json"))
        file = str(path)
        # A fuzzed manifest may list another file of the bundle, which an error then names.
        names = (file, str(path.parent)) if kind == "manifest" else (file,)
        commands = {
            "generator spec": [["simulate", "--config", file, "--out", str(root / "sim")]],
            "manifest": [
                ["evaluate", "--manifest", file],
                ["fuse", "--manifest", file],
                ["search-weights", "--manifest", file, "--config", config, "--out", out],
                ["report", report, "--manifest", file],
            ],
            "weights": [["evaluate", "--manifest", manifest, "--weights", file],
                        ["fuse", "--manifest", manifest, "--weights", file]],
            "report": [["report", file], ["report", file, "--format", "json"]],
            "GA config": [["search-weights", "--manifest", manifest, "--config", file, "--out", out]],
        }[kind]
        for args in commands:
            result = CliRunner().invoke(cli, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
            assert result.exit_code in (0, 1, 2)
            if result.exit_code:
                errors = [line for line in result.stderr.splitlines() if line.startswith(("error: ", "i/o error: "))]
                assert any(name in line for line in errors for name in names), (args, result.stderr)
