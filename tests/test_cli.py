import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from softvote import (
    argmax_classes,
    fuse_majority,
    fuse_weighted,
    load_manifest,
    read_report,
    read_weights,
)
from softvote.cli import cli

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
        assert names == {"manifest.json", "labels.csv", "strong.csv", "mid.csv", "weak.csv"}

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


class TestSearchWeights:
    def test_writes_weights_and_logs_generations(self, bundle, tmp_path, runner):
        out = tmp_path / "weights.json"
        result = runner.invoke(
            cli,
            ["search-weights", "--manifest", str(bundle), "--seed", "7", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        weights, value = read_weights(out)
        assert weights.shape == (3,)
        assert value >= 0.0
        assert result.stderr.count("generation ") == 5

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

    @pytest.mark.parametrize("value", ["abc", True])
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

    def test_manifest_supplies_class_names(self, bundle, tmp_path, runner):
        report_path = self._report_file(bundle, tmp_path, runner)
        result = runner.invoke(
            cli, ["report", str(report_path), "--manifest", str(bundle)]
        )
        assert result.exit_code == 0
        assert "C6 = drink" in result.stdout

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

    def test_corrupt_predictions_is_validation_error(self, bundle, tmp_path, runner):
        manifest = json.loads(bundle.read_text(encoding="utf-8"))
        victim = bundle.parent / manifest["classifiers"][0]["path"]
        text = victim.read_text(encoding="utf-8").splitlines()
        text[1] = text[1].rsplit(",", 1)[0] + ",0.9"  # break the row sum
        victim.write_text("\n".join(text) + "\n", encoding="utf-8")
        result = runner.invoke(cli, ["evaluate", "--manifest", str(bundle)])
        assert result.exit_code == 1
