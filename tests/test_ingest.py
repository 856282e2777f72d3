import json
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from softvote import (
    AlignmentError,
    ClassifierProfile,
    ConfigError,
    DegenerateWeightsError,
    DimensionError,
    EnsembleInputs,
    EvaluationReport,
    FormatError,
    GAConfig,
    GeneratorSpec,
    LabelRangeError,
    LabeledSamples,
    Manifest,
    ManifestEntry,
    PredictionSet,
    SplitError,
    SplitSpec,
    ValidationError,
    evaluate,
    generate,
    load_labels,
    load_manifest,
    load_predictions,
    read_ga_config,
    read_generator_spec,
    read_manifest,
    read_report,
    read_weights,
    render_report_table,
    split_samples,
    write_ensemble,
    write_ga_config,
    write_labels,
    write_manifest,
    write_predictions,
    write_report,
    write_weights,
)

from softvote.ga import MAX_GENERATIONS, MAX_POPULATION_SIZE
from softvote.ingest import DEFAULT_CLASS_NAMES
from softvote.synthgen import MAX_NUM_CLASSES, MAX_NUM_SAMPLES

from conftest import random_ensemble


class TestLoadPredictions:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sample_id,p0,p1\ns1,1.0,0.0\ns2,0.5,0.5\n", encoding="utf-8")
        ps = load_predictions(p, 2)
        assert ps.classifier_name == "m"
        assert ps.sample_ids == ("s1", "s2")
        np.testing.assert_array_equal(ps.probs, [[1.0, 0.0], [0.5, 0.5]])

    def test_crlf_accepted_lf_emitted(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"sample_id,p0,p1\r\ns1,1.0,0.0\r\n")
        ps = load_predictions(p, 2)
        assert ps.sample_ids == ("s1",)
        out = tmp_path / "rewritten.csv"
        write_predictions(ps, out)
        assert b"\r" not in out.read_bytes()

    def test_bad_row_sum_reports_row_and_value(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sample_id,p0,p1\ns1,0.5,0.5\ns2,0.5,0.4\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"row 3.*0\.9"):
            load_predictions(p, 2)

    def test_duplicate_id_names_offender(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sample_id,p0,p1\ns1,1.0,0.0\ns1,0.5,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 3: duplicate sample_id 's1'"):
            load_predictions(p, 2)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,p0,p1\ns1,1.0,0.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="bad header"):
            load_predictions(p, 2)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sample_id,p0,p1\ns1,abc,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 2: non-numeric"):
            load_predictions(p, 2)

    def test_out_of_range_probability(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sample_id,p0,p1\ns1,1.5,-0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 2"):
            load_predictions(p, 2)

    def test_wrong_cell_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sample_id,p0,p1\ns1,1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 2"):
            load_predictions(p, 2)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_predictions(tmp_path / "nope.csv", 2)


class TestRoundTrips:
    def test_predictions_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        ps = PredictionSet(
            "model one",
            tuple(f"id{i}" for i in range(20)),
            rng.dirichlet(np.ones(5), size=20),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_predictions(ps, p1)
        again = load_predictions(p1, 5, name=ps.classifier_name)
        write_predictions(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(ps.probs, again.probs)

    def test_labels_round_trip(self, tmp_path):
        labels = LabeledSamples(("a", "b", "c"), [0, 2, 1])
        p1, p2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        write_labels(labels, p1)
        again = load_labels(p1, 3)
        write_labels(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        manifest = Manifest(
            num_classes=2,
            class_names=("cat", "dog"),
            classifiers=(ManifestEntry("a", "a.csv"), ManifestEntry("b", "b.csv")),
            labels_path="labels.csv",
        )
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(manifest, p1)
        again = read_manifest(p1)
        assert again == manifest
        write_manifest(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_weights_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
        write_weights([0.123456789, 0.5, 1.0], 0.4567, p1)
        weights, value = read_weights(p1)
        write_weights(weights, value, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(weights, [0.123456789, 0.5, 1.0])
        # What read_weights refuses is never written: write_weights raises
        # the error read_weights would raise, and leaves no file.
        for weights, value, error, message in [
            ([0.5, 0.5], -1.0, FormatError, "full_data_nll must be non-negative, got -1.0"),
            ([0.5], math.nan, FormatError, "full_data_nll must be a finite number, got nan"),
            ([0.5], 10**5000, FormatError, "full_data_nll must be a finite number, got an integer of 16610 bits"),
            (
                [[10**5000]],
                0.5,
                FormatError,
                "weights[0] must be a finite number, got a list holding an integer too long to print",
            ),
            ([-1.0], 0.5, DegenerateWeightsError, "weights must be non-negative"),
            ([5e-324, 0.0], 0.5, DegenerateWeightsError, "weights must sum to more than 1e-12, got 5e-324"),
            ([], 0.5, FormatError, "weights must be a non-empty array"),
        ]:
            bad = tmp_path / "bad.json"
            with pytest.raises(error) as info:
                write_weights(weights, value, bad)
            assert (type(info.value), str(info.value)) == (error, f"{bad}: {message}")
            assert sorted(os.listdir(tmp_path)) == ["w1.json", "w2.json"]

    def test_report_round_trip(self, tmp_path):
        inputs = random_ensemble(np.random.default_rng(1), 3, 50, 4)
        report = evaluate(inputs)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(report, p1)
        again = read_report(p1)
        write_report(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert again.nll == report.nll
        np.testing.assert_array_equal(again.confusion, report.confusion)

    def test_report_file_bytes(self, tmp_path):
        report = EvaluationReport(
            nll=0.30000000000000004,
            accuracy_percent=62.5,
            confusion=[[100.0, 0.0, 0.0], [25.0, 75.0, 0.0], [0.0, 0.0, 0.0]],
            per_class_accuracy=[100.0, 75.0, 0.0],
            classifier_names=("a", "b"),
            sample_count=8,
        )
        write_report(report, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text(encoding="utf-8") == (
            '{\n  "nll": 0.30000000000000004,\n  "accuracy_percent": 62.5,\n  "confusion": [\n'
            "    [\n      100.0,\n      0.0,\n      0.0\n    ],\n"
            "    [\n      25.0,\n      75.0,\n      0.0\n    ],\n"
            "    [\n      0.0,\n      0.0,\n      0.0\n    ]\n  ],\n"
            '  "per_class_accuracy": [\n    100.0,\n    75.0,\n    0.0\n  ],\n'
            '  "classifier_names": [\n    "a",\n    "b"\n  ],\n  "sample_count": 8\n}\n'
        )

    def test_ga_config_round_trip(self, tmp_path):
        config = GAConfig(population_size=30, elite_fraction=0.3, seed=99)
        p = tmp_path / "ga.json"
        write_ga_config(config, p)
        assert read_ga_config(p) == config

    @pytest.mark.parametrize(
        "values",
        [{"elite_fraction": np.float32(0.25)}, {"mutation_rate": Fraction(1, 20)}, {"fitness_sample_fraction": 1}],
        ids=["float32", "fraction", "int"],
    )
    def test_ga_config_fractions_are_stored_as_float(self, tmp_path, values):
        config = GAConfig(**values)
        (name, value), = values.items()
        assert type(getattr(config, name)) is float and getattr(config, name) == float(value)
        p = tmp_path / "ga.json"
        write_ga_config(config, p)
        assert read_ga_config(p) == config


class TestManifestLoading:
    def _bundle(self, tmp_path, n=3, seed=0):
        spec = GeneratorSpec(
            10,
            40,
            tuple(ClassifierProfile(f"m{i}", 0.7 + 0.03 * i, 2.0) for i in range(n)),
            seed=seed,
        )
        return write_ensemble(generate(spec), tmp_path / "bundle")

    def test_eight_classifier_manifest(self, tmp_path):
        spec = GeneratorSpec(
            10, 30, tuple(ClassifierProfile(f"m{i}", 0.8, 2.0) for i in range(8)), seed=1
        )
        manifest_path = write_ensemble(generate(spec), tmp_path / "b8")
        inputs = load_manifest(manifest_path)
        assert inputs.n_classifiers == 8
        assert inputs.num_classes == 10

    def test_two_classifier_manifest(self, tmp_path):
        manifest_path = self._bundle(tmp_path, n=2)
        assert load_manifest(manifest_path).n_classifiers == 2

    def test_round_trip_preserves_tensor(self, tmp_path):
        spec = GeneratorSpec(
            5, 25, (ClassifierProfile("a", 0.8, 2.0), ClassifierProfile("b", 0.6, 1.0)), seed=3
        )
        inputs = generate(spec)
        manifest_path = write_ensemble(inputs, tmp_path / "bundle")
        again = load_manifest(manifest_path)
        for loaded, written in zip(again.classifiers, inputs.classifiers, strict=True):
            assert loaded.probs.tobytes() == written.probs.tobytes()
        assert again.label_array.tolist() == inputs.label_array.tolist()
        assert again.classifier_names == inputs.classifier_names

    def test_paths_resolve_relative_to_manifest(self, tmp_path, monkeypatch):
        manifest_path = self._bundle(tmp_path)
        monkeypatch.chdir(tmp_path.parent)  # cwd is unrelated to the bundle
        assert load_manifest(manifest_path).n_classifiers == 3

    def test_missing_sample_is_alignment_error(self, tmp_path):
        manifest_path = self._bundle(tmp_path, n=2)
        manifest = read_manifest(manifest_path)
        victim = manifest_path.parent / manifest.classifiers[1].path
        lines = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(AlignmentError, match="m1"):
            load_manifest(manifest_path)

    def test_manifest_key_validation(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"num_classes": 2}), encoding="utf-8")
        with pytest.raises(FormatError, match="manifest keys"):
            read_manifest(p)

    def test_manifest_rejects_duplicate_names(self):
        with pytest.raises(ValidationError) as info:
            Manifest(
                num_classes=2,
                class_names=("a", "b"),
                classifiers=(ManifestEntry("x", "x.csv"), ManifestEntry("x", "y.csv")),
                labels_path="l.csv",
            )
        assert (type(info.value), str(info.value)) == (ValidationError, "duplicate classifier name 'x'")

    # Each of these could be written by write_manifest but not read back by read_manifest.
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"class_names": (7,)}, "class_names[0] must be a string, got 7"),
            ({"class_names": "a"}, "class_names must be a sequence of strings, got 'a'"),
            ({"labels_path": None}, "labels_path must be a string, got None"),
            ({"labels_path": "l\0.csv"}, "labels_path must not hold a NUL character, got 'l\\x00.csv'"),
            ({"num_classes": True}, "num_classes must be an integer, got True"),
            ({"num_classes": 10**5000}, "class_names lists 1 names for an integer of 16610 bits classes"),
        ],
    )
    def test_manifest_refuses_a_value_its_file_cannot_hold(self, changes, message):
        values = {"num_classes": 1, "class_names": ("a",), "labels_path": "l.csv", **changes}
        with pytest.raises(ValidationError) as info:
            Manifest(classifiers=(ManifestEntry("a", "a.csv"),), **values)
        assert (type(info.value), str(info.value)) == (ValidationError, message)

    @pytest.mark.parametrize(
        "name, path, message",
        [
            (7, 3, "name must be a string, got 7"),
            ("a", 3, "path must be a string, got 3"),
            ("a", "a\0.csv", "path must not hold a NUL character, got 'a\\x00.csv'"),
        ],
    )
    def test_manifest_entry_takes_only_strings(self, name, path, message):
        with pytest.raises(ValidationError) as info:
            Manifest(num_classes=1, class_names=(7,), classifiers=(ManifestEntry(name, path),), labels_path=None)
        assert (type(info.value), str(info.value)) == (ValidationError, message)

    def test_invalid_json_is_format_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="invalid JSON"):
            read_manifest(p)

    @pytest.mark.parametrize(
        "names, clash",
        [
            (("m0", "labels"), "labels.csv"),
            (("a b", "a_b"), "a_b.csv"),
            # One file on macOS and Windows file systems, which ignore letter case.
            (("NetA", "m1", "neta"), "neta.csv"),
            (("m0", "LABELS"), "LABELS.csv"),
            (("a B", "A_b"), "A_b.csv"),
        ],
    )
    def test_file_name_clash_writes_nothing(self, tmp_path, names, clash):
        spec = GeneratorSpec(3, 10, tuple(ClassifierProfile(n, 0.8, 2.0) for n in names), seed=0)
        out = tmp_path / "bundle"
        with pytest.raises(ValidationError, match=f"classifier file name clash: {clash}"):
            write_ensemble(generate(spec), out)
        assert not out.exists()


class TestDefaultClassNames:
    def test_well_known_indices(self):
        names = DEFAULT_CLASS_NAMES
        assert len(names) == 10
        assert names[0] == "safe driving"
        assert names[6] == "drink"
        assert names[9] == "talk to passenger"


class TestSplitSamples:
    def _labels(self, n):
        return LabeledSamples(tuple(f"s{i}" for i in range(n)), [0] * n)

    def test_hundred_samples_split_75_25(self):
        train, heldout = split_samples(self._labels(100), SplitSpec(seed=0))
        assert len(train) == 75 and len(heldout) == 25
        assert set(train) | set(heldout) == {f"s{i}" for i in range(100)}
        assert not set(train) & set(heldout)

    def test_four_samples_floor(self):
        train, heldout = split_samples(self._labels(4), SplitSpec(seed=1))
        assert len(train) == 3 and len(heldout) == 1

    def test_deterministic(self):
        a = split_samples(self._labels(30), SplitSpec(seed=5))
        b = split_samples(self._labels(30), SplitSpec(seed=5))
        assert a == b

    def test_empty_side_rejected(self):
        with pytest.raises(SplitError):
            split_samples(self._labels(2), SplitSpec(train_fraction=0.25, seed=0))
        with pytest.raises(SplitError):
            split_samples(self._labels(1), SplitSpec(seed=0))

    def test_readme_split_with_labels_for_unused_ids(self):
        # The README's library-use split draws from inputs.labels; ids that
        # only the labels file lists must not reach restrict().
        ids = ("a", "b", "c", "d")
        probs = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]]
        classifiers = (PredictionSet("m", ids, probs), PredictionSet("n", ids, probs))
        labels = LabeledSamples(ids + ("extra1", "extra2"), [0, 1, 0, 1, 0, 1])
        inputs = EnsembleInputs(classifiers, labels)
        train, heldout = split_samples(inputs.labels, SplitSpec(seed=3, train_fraction=0.5))
        assert sorted(train + heldout) == list(ids)
        assert inputs.restrict(heldout).sample_ids == heldout

    # float() of 10**400 would overflow, and repr() of 10**5000 would raise;
    # the comparison and the message must not.
    @pytest.mark.parametrize(
        "value", [1.0, 0.0, 10**400, -(10**400), 10**5000], ids=["one", "zero", "huge", "-huge", "too-long"]
    )
    def test_fraction_bounds(self, value):
        with pytest.raises(ConfigError, match=r"^train_fraction must be in \(0, 1\)"):
            SplitSpec(train_fraction=value)

    @pytest.mark.parametrize("value", ["0.5", "abc", True, None, 1j, [0.5]])
    def test_fraction_must_be_real(self, value):
        with pytest.raises(ConfigError, match="train_fraction must be a real number"):
            SplitSpec(train_fraction=value)

    def test_fraction_accepts_numpy_and_integral_reals(self):
        assert SplitSpec(train_fraction=np.float64(0.5)).train_fraction == 0.5
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\)"):
            SplitSpec(train_fraction=1)


class TestGAConfigFile:
    def test_empty_object_gives_defaults(self, tmp_path):
        p = tmp_path / "ga.json"
        p.write_text("{}", encoding="utf-8")
        assert read_ga_config(p) == GAConfig()

    def test_partial_override(self, tmp_path):
        p = tmp_path / "ga.json"
        p.write_text(json.dumps({"generations": 2, "seed": 7}), encoding="utf-8")
        config = read_ga_config(p)
        assert config.generations == 2
        assert config.seed == 7
        assert config.population_size == 50

    @pytest.mark.parametrize(
        "data, shown",
        [
            ({"population_size": 9}, "population_size 9 with elite_fraction 0.2 and extra_parent_fraction 0.1"),
            (
                {"population_size": 2, "elite_fraction": 0.5},
                "population_size 2 with elite_fraction 0.5 and extra_parent_fraction 0.1",
            ),
        ],
    )
    def test_config_keeping_one_parent_is_rejected(self, tmp_path, data, shown):
        message = f"{shown} selects 1 parent; crossover needs at least 2"
        with pytest.raises(ConfigError) as info:
            GAConfig(**data)
        assert str(info.value) == message
        p = tmp_path / "ga.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            read_ga_config(p)
        assert str(info.value) == f"{p}: bad GA config: {message}"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "ga.json"
        p.write_text(json.dumps({"popsize": 10}), encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown"):
            read_ga_config(p)


class TestGeneratorSpecFile:
    def test_read(self, tmp_path):
        p = tmp_path / "gen.json"
        p.write_text(
            json.dumps(
                {
                    "num_classes": 4,
                    "num_samples": 10,
                    "seed": 3,
                    "classifiers": [
                        {"name": "a", "accuracy": 0.9, "sharpness": 2.0},
                        {"name": "b", "accuracy": 0.6, "sharpness": 1.0},
                    ],
                }
            ),
            encoding="utf-8",
        )
        spec = read_generator_spec(p)
        assert spec.num_classes == 4
        assert spec.profiles[1] == ClassifierProfile("b", 0.6, 1.0)

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "gen.json"
        p.write_text(json.dumps({"num_classes": 4}), encoding="utf-8")
        with pytest.raises(FormatError):
            read_generator_spec(p)


class TestReportRendering:
    def _perfect_report(self, c=2):
        conf = 100.0 * np.eye(c)
        return EvaluationReport(
            nll=0.15752,
            accuracy_percent=100.0,
            confusion=conf,
            per_class_accuracy=np.diagonal(conf).copy(),
            classifier_names=("a", "b"),
            sample_count=8,
        )

    def test_header_precision(self):
        text = render_report_table(self._perfect_report())
        assert "NLL: 0.1575" in text
        assert "Accuracy: 100.00" in text
        assert "Samples: 8" in text

    def test_diagonal_cells(self):
        text = render_report_table(self._perfect_report())
        assert "100.00" in text
        assert "C0" in text and "C1" in text

    def test_zero_sample_row_rendered_as_dashes(self):
        report = EvaluationReport(
            nll=0.2,
            accuracy_percent=100.0,
            confusion=[[100.0, 0.0], [0.0, 0.0]],
            per_class_accuracy=[100.0, 0.0],
            classifier_names=("a",),
            sample_count=3,
        )
        text = render_report_table(report)
        assert "no samples with actual class: C1" in text
        assert text.count(" -") >= 2

    def test_class_name_legend(self):
        text = render_report_table(self._perfect_report(), class_names=["cat", "dog"])
        assert "C0 = cat" in text and "C1 = dog" in text
        with pytest.raises(ValidationError):
            render_report_table(self._perfect_report(), class_names=["only-one"])


class TestWeightsFileValidation:
    def test_key_check(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"weights": [1.0]}), encoding="utf-8")
        with pytest.raises(FormatError):
            read_weights(p)

    def test_negative_nll_rejected(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"weights": [1.0], "full_data_nll": -1.0}), encoding="utf-8")
        with pytest.raises(FormatError):
            read_weights(p)


class TestLabelsFile:
    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("sample_id,label\na,5\n", encoding="utf-8")
        with pytest.raises(LabelRangeError, match="row 2"):
            load_labels(p, 3)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("sample_id,label\na,x\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 2"):
            load_labels(p, 3)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("sample_id,label\na,0\na,1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate"):
            load_labels(p, 3)


class TestTypedJsonFields:
    def _manifest(self, tmp_path, num_classes):
        p = tmp_path / "manifest.json"
        p.write_text(
            json.dumps(
                {
                    "num_classes": num_classes,
                    "class_names": ["a", "b"],
                    "classifiers": [{"name": "m", "path": "m.csv"}],
                    "labels": "labels.csv",
                }
            ),
            encoding="utf-8",
        )
        return p

    def _spec(self, tmp_path, **overrides):
        spec = {
            "num_classes": 4,
            "num_samples": 10,
            "seed": 3,
            "classifiers": [{"name": "a", "accuracy": 0.9, "sharpness": 2.0}],
        }
        profile = {k: overrides.pop(k) for k in ("accuracy", "sharpness") if k in overrides}
        spec["classifiers"][0].update(profile)
        spec.update(overrides)
        p = tmp_path / "gen.json"
        p.write_text(json.dumps(spec), encoding="utf-8")
        return p

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"classifiers": 5}, "classifiers must be an array, got 5"),
            ({"class_names": 5}, "class_names must be an array, got 5"),
            ({"class_names": [1, None]}, r"class_names\[0\] must be a string, got 1"),
            ({"class_names": ["a", None]}, r"class_names\[1\] must be a string, got None"),
            ({"classifiers": [{"name": None, "path": "m.csv"}]}, r"classifiers\[0\]\.name must be a string, got None"),
            ({"classifiers": [{"name": "m", "path": 3}]}, r"classifiers\[0\]\.path must be a string, got 3"),
            ({"labels": 5}, "labels must be a string, got 5"),
        ],
    )
    def test_manifest_structure_is_typed(self, tmp_path, changes, message):
        p = self._manifest(tmp_path, 2)
        data = json.loads(p.read_text(encoding="utf-8"))
        data.update(changes)
        p.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FormatError, match=r"manifest\.json: " + message):
            read_manifest(p)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"classifiers": 5}, "classifiers must be an array, got 5"),
            ({"classifiers": [{"name": None, "accuracy": 0.9, "sharpness": 2.0}]},
             r"classifiers\[0\]\.name must be a string, got None"),
        ],
    )
    def test_generator_structure_is_typed(self, tmp_path, overrides, message):
        with pytest.raises(FormatError, match=r"gen\.json: " + message):
            read_generator_spec(self._spec(tmp_path, **overrides))

    @pytest.mark.parametrize("reader", [read_manifest, read_generator_spec, read_report, read_weights])
    def test_json_that_is_not_utf8_is_format_error(self, tmp_path, reader):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"labels": "l\xff.csv"}')
        with pytest.raises(FormatError, match=r"bad\.json: not UTF-8 text \(invalid start byte at byte 13\)"):
            reader(p)

    @pytest.mark.parametrize(
        "reader, text, key",
        [
            (
                read_manifest,
                '{"num_classes": 1, "class_names": ["a"], "labels": "l.csv",'
                ' "classifiers": [{"name": "m", "path": "m.csv", "path": "n.csv"}]}',
                "path",
            ),
            (read_weights, '{"weights": [1.0, 0.0], "weights": [0.0, 1.0], "full_data_nll": 0.5}', "weights"),
            (
                read_report,
                '{"nll": 0.1, "accuracy_percent": 100.0, "confusion": [[1]], "per_class_accuracy": [100.0],'
                ' "classifier_names": ["a"], "sample_count": 1, "nll": 0.2}',
                "nll",
            ),
            (read_ga_config, '{"seed": 1, "seed": 1}', "seed"),
            (
                read_generator_spec,
                '{"num_classes": 2, "num_samples": 4, "seed": 3, "num_samples": 5,'
                ' "classifiers": [{"name": "a", "accuracy": 0.9, "sharpness": 2.0}]}',
                "num_samples",
            ),
        ],
        ids=["manifest", "weights", "report", "ga-config", "generator-spec"],
    )
    def test_a_repeated_key_is_format_error(self, tmp_path, reader, text, key):
        # json alone keeps the last value; a file is read as written or refused.
        p = tmp_path / "in.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as info:
            reader(p)
        assert (type(info.value), str(info.value)) == (FormatError, f"{p}: invalid JSON: repeated key '{key}'")

    def test_manifest_string_num_classes(self, tmp_path):
        with pytest.raises(FormatError, match=r"manifest\.json: num_classes must be an integer, got 'x'"):
            read_manifest(self._manifest(tmp_path, "x"))

    def test_manifest_fractional_num_classes(self, tmp_path):
        with pytest.raises(FormatError, match=r"manifest\.json: num_classes must be an integer, got 10\.7"):
            read_manifest(self._manifest(tmp_path, 10.7))

    @pytest.mark.parametrize("value", [True, 2.0, None, [2]])
    def test_manifest_other_non_integers(self, tmp_path, value):
        with pytest.raises(FormatError, match="num_classes must be an integer"):
            read_manifest(self._manifest(tmp_path, value))

    def test_generator_string_accuracy(self, tmp_path):
        with pytest.raises(
            FormatError, match=r"gen\.json: classifiers\[0\]\.accuracy must be a finite number, got 'abc'"
        ):
            read_generator_spec(self._spec(tmp_path, accuracy="abc"))

    def test_generator_fractional_seed(self, tmp_path):
        with pytest.raises(FormatError, match=r"gen\.json: seed must be an integer, got 1\.9"):
            read_generator_spec(self._spec(tmp_path, seed=1.9))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"num_samples": "10"}, "num_samples"),
            ({"num_classes": False}, "num_classes"),
            ({"sharpness": True}, r"classifiers\[0\]\.sharpness"),
            ({"accuracy": float("nan")}, r"classifiers\[0\]\.accuracy"),
            ({"sharpness": float("inf")}, r"classifiers\[0\]\.sharpness"),
            ({"sharpness": 10**400}, r"classifiers\[0\]\.sharpness"),
        ],
    )
    def test_generator_other_bad_values(self, tmp_path, overrides, key):
        with pytest.raises(FormatError, match=key + " must be"):
            read_generator_spec(self._spec(tmp_path, **overrides))

    def test_integral_json_numbers_are_accepted_for_reals(self, tmp_path):
        spec = read_generator_spec(self._spec(tmp_path, accuracy=1, sharpness=0))
        assert spec.profiles[0] == ClassifierProfile("a", 1.0, 0.0)
        assert isinstance(spec.profiles[0].accuracy, float)

    def _report(self, tmp_path, **changes):
        conf = [[100.0, 0.0], [0.0, 100.0]]
        data = {
            "nll": 0.1,
            "accuracy_percent": 100.0,
            "confusion": conf,
            "per_class_accuracy": [100.0, 100.0],
            "classifier_names": ["a"],
            "sample_count": 4,
        }
        data.update(changes)
        p = tmp_path / "report.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        return p

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"accuracy_percent": "100"}, "accuracy_percent must be a finite number, got '100'"),
            ({"confusion": [[100.0, "0"], [0.0, 100.0]]}, r"confusion\[0\]\[1\] must be a finite number"),
            ({"confusion": [[100.0, 0.0], [100.0]]}, "confusion rows must all have the same length"),
            ({"confusion": "abc"}, "confusion must be an array, got 'abc'"),
            ({"per_class_accuracy": [100.0, False]}, r"per_class_accuracy\[1\] must be a finite number"),
            ({"classifier_names": 5}, "classifier_names must be an array, got 5"),
            ({"classifier_names": ["a", 7]}, r"classifier_names\[1\] must be a string, got 7"),
        ],
    )
    def test_report_fields_are_typed(self, tmp_path, changes, message):
        with pytest.raises(FormatError, match=r"report\.json: " + message):
            read_report(self._report(tmp_path, **changes))

    def test_report_integral_numbers_are_accepted_for_reals(self, tmp_path):
        report = read_report(self._report(tmp_path, nll=0, confusion=[[100, 0], [0, 100]]))
        assert report.nll == 0.0
        assert report.confusion.tolist() == [[100.0, 0.0], [0.0, 100.0]]

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"weights": [1.0, "0.5"], "full_data_nll": 0.3}, r"weights\[1\] must be a finite number, got '0\.5'"),
            ({"weights": [1.0, 0.5], "full_data_nll": "0.3"}, "full_data_nll must be a finite number, got '0.3'"),
            ({"weights": "1.0", "full_data_nll": 0.3}, "weights must be an array, got '1.0'"),
            ({"weights": [], "full_data_nll": 0.3}, "weights must be a non-empty array"),
            ({"weights": [1.0], "full_data_nll": float("nan")}, "full_data_nll must be a finite number"),
        ],
    )
    def test_weights_fields_are_typed(self, tmp_path, data, message):
        p = tmp_path / "w.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FormatError, match=r"w\.json: " + message):
            read_weights(p)

    @pytest.mark.parametrize(
        "reader, changes, error, message",
        [
            (read_manifest, {"num_classes": 0, "class_names": []}, ValidationError, "num_classes must be >= 1, got 0"),
            (read_manifest, {"num_classes": 3}, ValidationError, "class_names lists 2 names for 3 classes"),
            (read_manifest, {"classifiers": []}, ValidationError, "classifiers must list at least one classifier"),
            (read_generator_spec, {"num_classes": 0}, ConfigError, "num_classes must be in [1, 1000], got 0"),
            (read_generator_spec, {"num_classes": 10**9}, ConfigError, "num_classes must be in [1, 1000], got 1000000000"),
            (
                read_generator_spec,
                {"num_samples": 10**12},
                ConfigError,
                "num_samples must be in [1, 1000000], got 1000000000000",
            ),
            (read_generator_spec, {"seed": 2**64}, ConfigError, f"seed must be in [0, 2**64), got {2**64}"),
            (read_generator_spec, {"classifiers": []}, ConfigError, "classifiers must list at least one classifier"),
            (
                read_generator_spec,
                {"classifiers": [{"name": "", "accuracy": 0.9, "sharpness": 2.0}]},
                ConfigError,
                "classifiers[0].name must be a non-empty string, got ''",
            ),
            (
                read_generator_spec,
                {"classifiers": [{"name": "a", "accuracy": 0.9, "sharpness": 2.0}] * 2},
                ConfigError,
                "duplicate classifier name 'a'",
            ),
            (read_generator_spec, {"accuracy": 1.5}, ConfigError, "classifiers[0].accuracy must be in (0, 1], got 1.5"),
            (read_generator_spec, {"sharpness": -1}, ConfigError, "classifiers[0].sharpness must be >= 0, got -1.0"),
            (read_report, {"nll": -1.0}, ValidationError, "nll must be a non-negative real, got -1.0"),
            (read_report, {"accuracy_percent": 101}, ValidationError, "accuracy_percent out of [0, 100]: 101.0"),
            (read_report, {"sample_count": -1}, ValidationError, "sample_count must be non-negative"),
            (
                read_report,
                {"per_class_accuracy": [100.0]},
                DimensionError,
                "per_class_accuracy length must match the confusion matrix",
            ),
            (read_report, {"confusion": []}, DimensionError, "confusion matrix must be square, got shape (0,)"),
            (read_weights, {"weights": [-1.0, 2.0]}, DegenerateWeightsError, "weights must be non-negative"),
            (read_weights, {"weights": [0.0, 0.0]}, DegenerateWeightsError, "weights must not sum to zero"),
            (
                read_weights,
                {"weights": [1e-13, 0.0]},
                DegenerateWeightsError,
                "weights must sum to more than 1e-12, got 1e-13",
            ),
            (read_weights, {"weights": [1e308, 1e308]}, DegenerateWeightsError, "weights must have a finite sum"),
            (read_weights, {"full_data_nll": -1.0}, FormatError, "full_data_nll must be non-negative, got -1.0"),
            (
                read_ga_config,
                {"population_size": 10**30},
                ConfigError,
                f"bad GA config: population_size must be in [2, 100000], got {10**30}",
            ),
            (
                read_ga_config,
                {"population_size": 10**12},
                ConfigError,
                f"bad GA config: population_size must be in [2, 100000], got {10**12}",
            ),
            (
                read_ga_config,
                {"generations": 10**30},
                ConfigError,
                f"bad GA config: generations must be in [1, 100000], got {10**30}",
            ),
            (
                read_ga_config,
                {"elite_fraction": 10**400},
                ConfigError,
                f"bad GA config: elite_fraction must be in (0, 1], got {10**400}",
            ),
            (
                read_manifest,
                {"classifiers": [{"name": "a,b", "path": "m.csv"}]},
                ValidationError,
                "classifiers[0].name must hold no comma and no whitespace at either end, got 'a,b'",
            ),
            (
                read_manifest,
                {"classifiers": [{"name": " a", "path": "m.csv"}]},
                ValidationError,
                "classifiers[0].name must hold no comma and no whitespace at either end, got ' a'",
            ),
            (
                read_manifest,
                {"classifiers": [{"name": "a ", "path": "m.csv"}]},
                ValidationError,
                "classifiers[0].name must hold no comma and no whitespace at either end, got 'a '",
            ),
            (
                read_manifest,
                {"classifiers": [{"name": "", "path": "m.csv"}]},
                ValidationError,
                "classifiers[0].name must be a non-empty string, got ''",
            ),
            (
                read_generator_spec,
                {"classifiers": [{"name": "a,b", "accuracy": 0.9, "sharpness": 2.0}]},
                ConfigError,
                "classifiers[0].name must hold no comma and no whitespace at either end, got 'a,b'",
            ),
            (
                read_generator_spec,
                {"classifiers": [{"name": " a", "accuracy": 0.9, "sharpness": 2.0}]},
                ConfigError,
                "classifiers[0].name must hold no comma and no whitespace at either end, got ' a'",
            ),
        ],
    )
    def test_range_and_limit_errors_name_file_and_key(self, tmp_path, reader, changes, error, message):
        # Nothing here builds a bundle or runs a search: each reader only
        # constructs the checked type, so an oversized count allocates nothing.
        valid = {
            read_manifest: json.loads(self._manifest(tmp_path, 2).read_text(encoding="utf-8")),
            read_generator_spec: json.loads(self._spec(tmp_path).read_text(encoding="utf-8")),
            read_report: json.loads(self._report(tmp_path).read_text(encoding="utf-8")),
            read_weights: {"weights": [1.0, 0.5], "full_data_nll": 0.3},
            read_ga_config: {},
        }[reader]
        for key in ("accuracy", "sharpness"):
            if key in changes:
                valid["classifiers"][0][key] = changes.pop(key)
        valid.update(changes)
        p = tmp_path / "in.json"
        p.write_text(json.dumps(valid), encoding="utf-8")
        with pytest.raises(error) as info:
            reader(p)
        assert type(info.value) is error
        assert str(info.value) == f"{p}: {message}"

    def test_count_limits_are_inclusive(self, tmp_path):
        p = tmp_path / "ga.json"
        p.write_text(json.dumps({"population_size": MAX_POPULATION_SIZE, "generations": MAX_GENERATIONS}))
        assert read_ga_config(p).population_size == MAX_POPULATION_SIZE
        spec = read_generator_spec(self._spec(tmp_path, num_classes=MAX_NUM_CLASSES, num_samples=MAX_NUM_SAMPLES))
        assert (spec.num_classes, spec.num_samples) == (MAX_NUM_CLASSES, MAX_NUM_SAMPLES)

    @pytest.mark.parametrize("reader", [read_manifest, read_generator_spec, read_report, read_weights, read_ga_config])
    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["long-integer", "deep-nesting"])
    def test_json_the_decoder_refuses_is_format_error(self, tmp_path, reader, text):
        p = tmp_path / "in.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: invalid JSON: "):
            reader(p)
