import math

import numpy as np
import pytest

from softvote import (
    AlignmentError,
    DimensionError,
    EmptyInputError,
    EvaluationReport,
    LabelRangeError,
    ValidationError,
    accuracy,
    confusion_matrix,
    evaluate,
    nll,
)

from conftest import build_ensemble, random_ensemble


class TestNll:
    def test_perfectly_confident_is_zero(self):
        fused = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll(fused, [0, 1]) == 0.0

    def test_uniform_ten_classes_is_ln_ten(self):
        fused = np.full((5, 10), 0.1)
        assert abs(nll(fused, [3, 1, 4, 1, 5]) - math.log(10)) <= 1e-12

    def test_zero_probability_clamps_at_epsilon(self):
        fused = np.array([[0.0, 1.0]])
        assert nll(fused, [0]) == pytest.approx(-math.log(1e-15), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            nll(np.full((3, 2), 0.5), [0, 1])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            nll(np.empty((0, 2)), [])

    def test_label_out_of_range(self):
        with pytest.raises(LabelRangeError):
            nll(np.full((1, 2), 0.5), [2])

    def test_never_negative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fused = rng.dirichlet(np.ones(4), size=30)
            assert nll(fused, rng.integers(0, 4, 30)) >= 0.0

    def test_clamp_is_inert_above_epsilon(self):
        # Any true-class probability above 1e-15 is untouched by the clip.
        fused = np.array([[1e-10, 1.0 - 1e-10], [0.3, 0.7]])
        labels = [0, 1]
        expected = float(np.mean([-math.log(1e-10), -math.log(0.7)]))
        assert nll(fused, labels) == expected

    def test_positive_when_any_sample_is_uncertain(self):
        fused = np.array([[1.0, 0.0], [0.6, 0.4]])
        assert nll(fused, [0, 0]) > 0.0


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([[0.9, 0.1], [0.2, 0.8]]), [0, 1]) == 100.0

    def test_all_wrong(self):
        assert accuracy(np.array([[0.9, 0.1], [0.2, 0.8]]), [1, 0]) == 0.0

    def test_three_of_four(self):
        fused = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        assert accuracy(fused, [0, 0, 1, 0]) == 75.0


class TestConfusionMatrix:
    def test_hand_counted_two_class_case(self):
        # (actual, predicted) pairs: (0,0), (0,1), (1,1), (1,1)
        fused = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.2, 0.8]])
        conf = confusion_matrix(fused, [0, 0, 1, 1], 2)
        np.testing.assert_allclose(conf, [[50.0, 50.0], [0.0, 100.0]])

    def test_perfect_predictor_is_diagonal(self):
        fused = np.eye(4)
        conf = confusion_matrix(fused, [0, 1, 2, 3], 4)
        np.testing.assert_allclose(conf, 100.0 * np.eye(4))

    def test_single_class(self):
        conf = confusion_matrix(np.ones((3, 1)), [0, 0, 0], 1)
        np.testing.assert_allclose(conf, [[100.0]])

    def test_zero_sample_class_row_is_zero(self):
        conf = confusion_matrix(np.array([[0.9, 0.1, 0.0]]), [0], 3)
        np.testing.assert_allclose(conf[1], 0.0)
        np.testing.assert_allclose(conf[2], 0.0)

    def test_label_out_of_range(self):
        with pytest.raises(LabelRangeError):
            confusion_matrix(np.full((1, 2), 0.5), [5], 2)

    def test_class_count_mismatch(self):
        with pytest.raises(DimensionError):
            confusion_matrix(np.full((1, 3), 1 / 3), [0], 2)

    def test_invariant_under_sample_permutation(self):
        rng = np.random.default_rng(1)
        fused = rng.dirichlet(np.ones(5), size=40)
        labels = rng.integers(0, 5, 40)
        base = confusion_matrix(fused, labels, 5)
        perm = rng.permutation(40)
        np.testing.assert_array_equal(
            confusion_matrix(fused[perm], labels[perm], 5), base
        )


def _naive_report(tensor, weights, labels, num_classes):
    """Loop-based re-computation of every report field, no numpy reductions."""
    n, s, _ = tensor.shape
    total_w = sum(weights)
    nll_sum = 0.0
    counts = [[0] * num_classes for _ in range(num_classes)]
    correct = 0
    for i in range(s):
        row = [
            sum(weights[k] * tensor[k][i][c] for k in range(n)) / total_w
            for c in range(num_classes)
        ]
        pred = row.index(max(row))
        y = int(labels[i])
        nll_sum += -math.log(min(max(row[y], 1e-15), 1.0))
        counts[y][pred] += 1
        correct += pred == y
    conf = []
    for a in range(num_classes):
        total = sum(counts[a])
        conf.append([100.0 * counts[a][p] / total if total else 0.0 for p in range(num_classes)])
    return nll_sum / s, 100.0 * correct / s, conf


class TestEvaluate:
    def test_uniform_weights_match_majority_report(self):
        inputs = random_ensemble(np.random.default_rng(2), 4, 30, 5)
        with_weights = evaluate(inputs, np.ones(4))
        without = evaluate(inputs)
        assert with_weights.nll == without.nll
        assert with_weights.accuracy_percent == without.accuracy_percent
        np.testing.assert_array_equal(with_weights.confusion, without.confusion)

    def test_perfect_ensemble(self):
        eye = np.eye(3)
        inputs = build_ensemble([eye, eye], [0, 1, 2])
        report = evaluate(inputs)
        assert report.nll == 0.0
        assert report.accuracy_percent == 100.0
        np.testing.assert_allclose(report.confusion, 100.0 * np.eye(3))
        assert report.empty_classes == ()

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(3)
        inputs = random_ensemble(rng, 3, 200, 5)
        weights = rng.uniform(0.05, 1.0, 3)
        report = evaluate(inputs, weights)
        naive_nll, naive_acc, naive_conf = _naive_report(
            inputs.tensor, weights.tolist(), inputs.label_array, 5
        )
        assert report.nll == pytest.approx(naive_nll, abs=1e-12)
        assert report.accuracy_percent == naive_acc
        np.testing.assert_allclose(report.confusion, naive_conf, atol=1e-12)

    def test_accuracy_equals_weighted_diagonal(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            inputs = random_ensemble(rng, 2, 120, 6)
            report = evaluate(inputs)
            y = inputs.label_array
            sample_counts = np.bincount(y, minlength=6)
            weighted = float(
                (report.per_class_accuracy * sample_counts).sum() / sample_counts.sum()
            )
            assert report.accuracy_percent == pytest.approx(weighted, abs=1e-9)

    def test_classifier_names_and_sample_count(self):
        inputs = random_ensemble(np.random.default_rng(4), 2, 7, 3)
        report = evaluate(inputs)
        assert report.classifier_names == ("clf0", "clf1")
        assert report.sample_count == 7

    def test_zero_sample_class_is_flagged(self):
        inputs = build_ensemble([np.array([[0.9, 0.05, 0.05]])], [0])
        report = evaluate(inputs)
        assert report.empty_classes == (1, 2)


class TestEvaluationReportValidation:
    def test_rejects_diagonal_mismatch(self):
        with pytest.raises(ValidationError):
            EvaluationReport(
                nll=0.1,
                accuracy_percent=50.0,
                confusion=[[50.0, 50.0], [0.0, 100.0]],
                per_class_accuracy=[40.0, 100.0],
                classifier_names=("a",),
                sample_count=4,
            )

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError):
            EvaluationReport(
                nll=0.1,
                accuracy_percent=50.0,
                confusion=[[60.0, 50.0], [0.0, 100.0]],
                per_class_accuracy=[60.0, 100.0],
                classifier_names=("a",),
                sample_count=4,
            )

    def test_rejects_negative_nll(self):
        with pytest.raises(ValidationError):
            EvaluationReport(
                nll=-0.5,
                accuracy_percent=100.0,
                confusion=[[100.0]],
                per_class_accuracy=[100.0],
                classifier_names=("a",),
                sample_count=1,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("nll", 10**5000, "nll must be a non-negative real, got an integer of 16610 bits"),
            ("nll", "0.5", "nll must be a non-negative real, got '0.5'"),
            ("accuracy_percent", 10**5000, r"accuracy_percent out of \[0, 100\]: an integer of 16610 bits"),
            ("accuracy_percent", "50", r"accuracy_percent out of \[0, 100\]: '50'"),
        ],
        ids=["nll-too-long", "nll-string", "accuracy-too-long", "accuracy-string"],
    )
    def test_rejects_a_value_no_float_holds_by_name(self, field, value, message):
        values = dict(nll=0.5, accuracy_percent=100.0)
        values[field] = value
        with pytest.raises(ValidationError, match=f"^{message}$"):
            EvaluationReport(
                **values,
                confusion=[[100.0]],
                per_class_accuracy=[100.0],
                classifier_names=("a",),
                sample_count=1,
            )

    def test_accepts_zero_rows(self):
        report = EvaluationReport(
            nll=0.2,
            accuracy_percent=100.0,
            confusion=[[100.0, 0.0], [0.0, 0.0]],
            per_class_accuracy=[100.0, 0.0],
            classifier_names=("a",),
            sample_count=3,
        )
        assert report.empty_classes == (1,)
