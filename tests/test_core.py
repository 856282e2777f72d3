import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softvote import (
    AlignmentError,
    DegenerateWeightsError,
    DimensionError,
    EnsembleInputs,
    GAConfig,
    LabelRangeError,
    LabeledSamples,
    PredictionSet,
    ValidationError,
    accuracy,
    argmax_class,
    argmax_classes,
    as_weights,
    brute_force_weights,
    confusion_matrix,
    evaluate,
    fuse_majority,
    fuse_weighted,
    load_labels,
    load_predictions,
    nll,
    run_ga,
    write_ensemble,
    write_predictions,
)
from softvote.cli import cli

from conftest import build_ensemble, random_ensemble


class TestPredictionSet:
    def test_valid_construction(self):
        ps = PredictionSet("m", ("a", "b"), [[0.8, 0.2], [0.4, 0.6]])
        assert ps.num_samples == 2
        assert ps.num_classes == 2
        assert not ps.probs.flags.writeable

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="row 1"):
            PredictionSet("m", ("a", "b"), [[0.5, 0.5], [0.5, 0.4]])

    def test_accepts_row_sum_within_tolerance(self):
        PredictionSet("m", ("a",), [[0.5, 0.5 + 5e-7]])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            PredictionSet("m", ("a",), [[1.2, -0.2]])

    def test_rejects_duplicate_sample_ids(self):
        with pytest.raises(ValidationError, match="duplicate sample_id 'a'"):
            PredictionSet("m", ("a", "a"), [[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_id_row_mismatch(self):
        with pytest.raises(DimensionError):
            PredictionSet("m", ("a", "b", "c"), [[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            PredictionSet("m", ("a",), [0.5, 0.5])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PredictionSet(7, ("a",), [[1.0]]), "classifier_name must be a string, got 7"),
            (lambda: PredictionSet("m", [1, 2], [[1.0], [1.0]]), "m: sample_ids[0] must be a string, got 1"),
            (lambda: PredictionSet("m", ("a", ["b"]), [[1.0], [1.0]]), "m: sample_ids[1] must be a string, got ['b']"),
            (lambda: PredictionSet("m", "ab", [[1.0], [1.0]]), "m: sample_ids must be a sequence of strings, got 'ab'"),
            (lambda: LabeledSamples(("a", b"b"), [0, 1]), "labels: sample_ids[1] must be a string, got b'b'"),
        ],
        ids=["name", "int-ids", "list-id", "string-ids", "bytes-label-id"],
    )
    def test_names_and_sample_ids_must_be_strings(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert (type(info.value), str(info.value)) == (ValidationError, message)

    def test_numpy_string_ids_are_strings(self, tmp_path):
        ps = PredictionSet("m", np.array(["a", "b"]), [[1.0], [1.0]])
        write_predictions(ps, tmp_path / "m.csv")
        assert load_predictions(tmp_path / "m.csv", 1).sample_ids == ("a", "b")


class TestEnsembleInputs:
    def test_alignment_error_names_classifier_and_row(self):
        a = PredictionSet("first", ("x", "y"), [[1.0, 0.0], [0.0, 1.0]])
        b = PredictionSet("second", ("x", "z"), [[1.0, 0.0], [0.0, 1.0]])
        labels = LabeledSamples(("x", "y", "z"), [0, 1, 1])
        with pytest.raises(AlignmentError, match="second.*index 1"):
            EnsembleInputs((a, b), labels)

    def test_class_count_mismatch(self):
        a = PredictionSet("first", ("x",), [[1.0, 0.0]])
        b = PredictionSet("second", ("x",), [[1.0, 0.0, 0.0]])
        with pytest.raises(AlignmentError, match="second"):
            EnsembleInputs((a, b), LabeledSamples(("x",), [0]))

    def test_missing_label(self):
        a = PredictionSet("m", ("x", "y"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(AlignmentError, match="'y'"):
            EnsembleInputs((a,), LabeledSamples(("x",), [0]))

    def test_label_out_of_range(self):
        a = PredictionSet("m", ("x",), [[1.0, 0.0]])
        with pytest.raises(LabelRangeError):
            EnsembleInputs((a,), LabeledSamples(("x",), [2]))

    def test_needs_one_classifier(self):
        # The weight search relies on this: its steps assume one gene or more.
        with pytest.raises(ValidationError, match="^classifiers must list at least one classifier$"):
            EnsembleInputs((), LabeledSamples(("x",), [0]))

    def test_label_array_follows_row_order(self):
        a = PredictionSet("m", ("x", "y"), [[1.0, 0.0], [0.0, 1.0]])
        labels = LabeledSamples(("y", "x"), [1, 0])  # different order, same ids
        inputs = EnsembleInputs((a,), labels)
        assert inputs.label_array.tolist() == [0, 1]

    def test_labels_are_the_callers_object_when_already_aligned(self):
        a = PredictionSet("m", ("x", "y"), [[1.0, 0.0], [0.0, 1.0]])
        labels = LabeledSamples(("x", "y"), [0, 1])
        inputs = EnsembleInputs((a,), labels)
        assert inputs.labels is labels
        assert inputs.subset(["m"]).labels is labels

    def test_labels_follow_row_order_and_drop_unused_ids(self):
        a = PredictionSet("m", ("x", "y"), [[1.0, 0.0], [0.0, 1.0]])
        inputs = EnsembleInputs((a,), LabeledSamples(("extra", "y", "x"), [1, 1, 0]))
        assert inputs.labels.sample_ids == ("x", "y")
        assert inputs.labels.labels.tolist() == [0, 1]
        assert inputs.label_array is inputs.labels.labels

    @pytest.mark.parametrize(
        "names, message",
        [
            (["nope"], "unknown classifier 'nope'"),
            (["clf0", "clf0"], "subset names classifier 'clf0' twice"),
            (["clf1", "clf1", "nope"], "subset names classifier 'clf1' twice"),
            (["nope", "clf1", "clf1"], "subset names classifier 'clf1' twice"),
            (["nope", "nope"], "subset names classifier 'nope' twice"),
        ],
        ids=["unknown", "repeated", "repeated-then-unknown", "unknown-then-repeated", "unknown-repeated"],
    )
    def test_subset_orders_and_validates(self, tmp_path, names, message):
        # EnsembleInputs.subset and the CLI's --subset follow one rule, so
        # they refuse the same names with the same message.
        inputs = random_ensemble(np.random.default_rng(0), 3, 5, 4)
        sub = inputs.subset(["clf2", "clf0"])
        assert sub.classifier_names == ("clf2", "clf0")
        np.testing.assert_array_equal(sub.classifiers[0].probs, inputs.classifiers[2].probs)
        # One name is one network, so subset can never pick the wrong "clf0".
        x, x2 = inputs.classifiers[0], PredictionSet("clf0", inputs.sample_ids, inputs.classifiers[1].probs)
        with pytest.raises(ValidationError) as caught:
            EnsembleInputs((x, x2), inputs.labels).subset(["clf0"])
        assert str(caught.value) == "duplicate classifier name 'clf0'"
        with pytest.raises(ValidationError) as caught:
            inputs.subset(names)
        assert str(caught.value) == message
        manifest = write_ensemble(inputs, tmp_path / "bundle")
        for command in ("evaluate", "fuse"):
            result = CliRunner().invoke(cli, [command, "--manifest", str(manifest), "--subset", ",".join(names)])
            assert result.exit_code == 1
            assert result.stderr == f"error: {message}\n"

    def test_restrict_reorders_samples(self):
        inputs = random_ensemble(np.random.default_rng(1), 2, 6, 3)
        picked = (inputs.sample_ids[4], inputs.sample_ids[1])
        sub = inputs.restrict(picked)
        assert sub.sample_ids == picked
        np.testing.assert_array_equal(
            [ps.probs[0] for ps in sub.classifiers], [ps.probs[4] for ps in inputs.classifiers]
        )
        assert sub.label_array.tolist() == [
            inputs.label_array[4],
            inputs.label_array[1],
        ]
        with pytest.raises(AlignmentError):
            inputs.restrict(("missing",))


class TestFusion:
    def test_majority_single_classifier_is_identity(self):
        inputs = random_ensemble(np.random.default_rng(2), 1, 7, 5)
        np.testing.assert_array_equal(fuse_majority(inputs), inputs.classifiers[0].probs)

    def test_majority_of_identical_classifiers_is_identity(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=6)
        inputs = build_ensemble([probs, probs], rng.integers(0, 4, 6))
        np.testing.assert_array_equal(fuse_majority(inputs), probs)

    def test_majority_two_classifier_mean(self):
        inputs = build_ensemble([[[0.8, 0.2]], [[0.4, 0.6]]], [0])
        np.testing.assert_allclose(fuse_majority(inputs), [[0.6, 0.4]], atol=1e-12)

    def test_weighted_ones_equals_majority_exactly(self):
        inputs = random_ensemble(np.random.default_rng(4), 5, 9, 6)
        np.testing.assert_array_equal(
            fuse_weighted(inputs, np.ones(5)), fuse_majority(inputs)
        )

    def test_weighted_zero_weight_removes_classifier(self):
        inputs = random_ensemble(np.random.default_rng(5), 2, 8, 3)
        np.testing.assert_array_equal(
            fuse_weighted(inputs, [1.0, 0.0]), inputs.classifiers[0].probs
        )

    def test_weighted_three_to_one(self):
        inputs = build_ensemble([[[0.8, 0.2]], [[0.4, 0.6]]], [0])
        np.testing.assert_allclose(
            fuse_weighted(inputs, [3.0, 1.0]), [[0.7, 0.3]], atol=1e-12
        )

    def test_weighted_rejects_negative_weight(self):
        inputs = random_ensemble(np.random.default_rng(6), 2, 3, 2)
        with pytest.raises(DegenerateWeightsError):
            fuse_weighted(inputs, [1.0, -0.1])

    def test_weighted_rejects_zero_sum(self):
        inputs = random_ensemble(np.random.default_rng(7), 2, 3, 2)
        with pytest.raises(DegenerateWeightsError):
            fuse_weighted(inputs, [0.0, 0.0])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([0.0, -0.0], "weights must not sum to zero"),
            ([5e-324, 0.0], "weights must sum to more than 1e-12, got 5e-324"),
            ([1e-320, 1e-320], "weights must sum to more than 1e-12, got 2e-320"),
            ([1e-13, 0.0], "weights must sum to more than 1e-12, got 1e-13"),
            ([5e-13, 5e-13], "weights must sum to more than 1e-12, got 1e-12"),
        ],
    )
    def test_weighted_rejects_a_sum_at_or_below_the_floor(self, weights, message):
        inputs = random_ensemble(np.random.default_rng(7), 2, 3, 2)
        with pytest.raises(DegenerateWeightsError, match=f"^{re.escape(message)}$"):
            fuse_weighted(inputs, weights)
        # Just above the floor, and a power of two, so the fusion is exact.
        np.testing.assert_array_equal(fuse_weighted(inputs, [2.0**-39, 0.0]), inputs.classifiers[0].probs)

    def test_weighted_rejects_length_mismatch(self):
        inputs = random_ensemble(np.random.default_rng(8), 2, 3, 2)
        with pytest.raises(DimensionError):
            fuse_weighted(inputs, [1.0, 1.0, 1.0])

    def test_weighted_rejects_non_finite(self):
        inputs = random_ensemble(np.random.default_rng(9), 2, 3, 2)
        with pytest.raises(DegenerateWeightsError):
            fuse_weighted(inputs, [np.nan, 1.0])


class TestArgmax:
    def test_unique_maximum(self):
        assert argmax_class([0.1, 0.7, 0.2]) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert argmax_class([0.5, 0.5]) == 0

    def test_uniform_ties_to_zero(self):
        assert argmax_class(np.full(10, 0.1)) == 0

    def test_empty_distribution(self):
        with pytest.raises(DimensionError):
            argmax_class([])

    def test_matrix_rejected(self):
        with pytest.raises(DimensionError):
            argmax_class([[0.5, 0.5]])

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(10)
        fused = rng.dirichlet(np.ones(6), size=20)
        expected = [argmax_class(row) for row in fused]
        assert argmax_classes(fused).tolist() == expected


@st.composite
def ensembles_with_weights(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, 25))
    c = draw(st.integers(2, 10))
    rng = np.random.default_rng(seed)
    inputs = random_ensemble(rng, n, s, c, alpha=draw(st.floats(0.3, 5.0)))
    weights = rng.uniform(0.01, 1.0, size=n)
    return inputs, weights


class TestFusionProperties:
    @settings(max_examples=100, deadline=None)
    @given(ensembles_with_weights())
    def test_row_stochastic_closure(self, case):
        inputs, weights = case
        for fused in (fuse_majority(inputs), fuse_weighted(inputs, weights)):
            assert np.all(fused >= 0.0)
            np.testing.assert_allclose(fused.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(ensembles_with_weights(), st.floats(1e-3, 1e3))
    def test_weight_scale_invariance(self, case, scale):
        inputs, weights = case
        base = fuse_weighted(inputs, weights)
        scaled = fuse_weighted(inputs, scale * weights)
        np.testing.assert_allclose(scaled, base, atol=1e-12)
        np.testing.assert_array_equal(argmax_classes(scaled), argmax_classes(base))

    @settings(max_examples=100, deadline=None)
    @given(ensembles_with_weights(), st.floats(1e-3, 1e3))
    def test_constant_weights_match_majority(self, case, constant):
        inputs, _ = case
        fused = fuse_weighted(inputs, np.full(inputs.n_classifiers, constant))
        np.testing.assert_allclose(fused, fuse_majority(inputs), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(ensembles_with_weights())
    def test_convexity_bounds(self, case):
        inputs, weights = case
        tensor = np.stack([ps.probs for ps in inputs.classifiers])
        for fused in (fuse_majority(inputs), fuse_weighted(inputs, weights)):
            assert np.all(fused >= tensor.min(axis=0) - 1e-12)
            assert np.all(fused <= tensor.max(axis=0) + 1e-12)


def _stacked_fusion(matrices, weights):
    """Weighted fusion over one stacked (N, S, C) copy, summed in index order."""
    tensor = np.stack(matrices)
    fused = weights[0] * tensor[0]
    for i in range(1, tensor.shape[0]):
        fused += weights[i] * tensor[i]
    fused /= float(weights.sum())
    return fused


@st.composite
def ensembles_with_sparse_weights(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.sampled_from((1, 2, 8, 9, 17)))
    s = draw(st.integers(1, 12))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    inputs = random_ensemble(rng, n, s, c, alpha=draw(st.floats(0.3, 5.0)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    # At least one weight must be positive for the fusion to be defined.
    weights[draw(st.integers(0, n - 1))] = draw(st.floats(0.01, 10.0))
    return inputs, weights


class TestFusionMatchesStackedReference:
    @settings(max_examples=150, deadline=None)
    @given(ensembles_with_sparse_weights())
    @example((build_ensemble([np.ones((3, 1))] * 9, [0, 0, 0]), np.array([0.0] * 8 + [2.0])))
    def test_both_fusions_equal_stacked_sum_bit_for_bit(self, case):
        inputs, weights = case
        matrices = [ps.probs for ps in inputs.classifiers]
        n = inputs.n_classifiers
        weighted = fuse_weighted(inputs, weights)
        majority = fuse_majority(inputs)
        assert weighted.tobytes() == _stacked_fusion(matrices, weights).tobytes()
        assert majority.tobytes() == _stacked_fusion(matrices, np.ones(n)).tobytes()
        assert "tensor" not in vars(inputs)

    def test_power_of_two_constant_weights_match_majority_bit_for_bit(self):
        # Scaling every weight by a power of two scales each product and the
        # total exactly, so the fused bytes cannot move.
        for n in (1, 2, 8, 9, 17):
            inputs = random_ensemble(np.random.default_rng(n), n, 30, 4)
            expected = fuse_majority(inputs).tobytes()
            assert fuse_weighted(inputs, np.full(n, 4.0)).tobytes() == expected


class TestStackedTensorIsNeverBuilt:
    def _inputs(self):
        return random_ensemble(np.random.default_rng(12), 3, 40, 4)

    def test_fusion_and_evaluation(self):
        inputs = self._inputs()
        fuse_majority(inputs)
        fuse_weighted(inputs, [0.2, 0.3, 0.5])
        evaluate(inputs)
        evaluate(inputs, [0.2, 0.3, 0.5])
        assert "tensor" not in vars(inputs)

    def test_search_fitness_and_oracle(self):
        inputs = self._inputs()
        run_ga(inputs, GAConfig(generations=2, seed=3))
        brute_force_weights(inputs, grid_step=0.25)
        assert "tensor" not in vars(inputs)

    def test_tensor_is_built_on_first_access_and_cached(self):
        inputs = self._inputs()
        tensor = inputs.tensor
        assert vars(inputs)["tensor"] is tensor
        assert tensor.shape == (3, 40, 4)
        assert not tensor.flags.writeable


def test_as_weights_returns_frozen_copy():
    w = as_weights([1.0, 2.0], 2)
    assert not w.flags.writeable
    with pytest.raises(DimensionError):
        as_weights([[1.0, 2.0]], 2)


def test_labels_accept_an_empty_list_and_any_integer_dtype():
    assert LabeledSamples((), []).labels.dtype == np.int64
    given = np.array([0, 1], dtype=np.uint8)
    labels = LabeledSamples(("a", "b"), given)
    assert (labels.labels.dtype, labels.labels.tolist()) == (np.int64, [0, 1])
    assert given.flags.writeable  # the stored copy is frozen, not the caller's array
    assert nll(np.eye(2), given) == nll(np.eye(2), [0, 1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: load_predictions("m.csv", 0), ValidationError, "num_classes must be >= 1"),
        (lambda: load_predictions("m.csv", 2.5), ValidationError, "num_classes must be an integer, got 2.5"),
        (lambda: load_predictions("m.csv", "1"), ValidationError, "num_classes must be an integer, got '1'"),
        (lambda: load_predictions("m.csv", True), ValidationError, "num_classes must be an integer, got True"),
        (lambda: load_labels("l.csv", 0), ValidationError, "num_classes must be >= 1"),
        (lambda: load_labels("l.csv", 2.5), ValidationError, "num_classes must be an integer, got 2.5"),
        (lambda: load_labels("l.csv", "1"), ValidationError, "num_classes must be an integer, got '1'"),
        (lambda: load_labels("l.csv", True), ValidationError, "num_classes must be an integer, got True"),
        (lambda: PredictionSet("m", (), np.empty((0, 0))), DimensionError, "m: need at least one class column"),
        (lambda: LabeledSamples(("a",), [[0]]), DimensionError, "labels must be 1-D, got shape (1, 1)"),
        (lambda: LabeledSamples(("a",), [-1]), LabelRangeError, "labels must be non-negative"),
        (lambda: LabeledSamples(("a", "b"), [1.7, 0.2]), ValidationError, "labels must be integers, got float64 values"),
        (lambda: LabeledSamples(("a",), [True]), ValidationError, "labels must be integers, got bool values"),
        (lambda: LabeledSamples(("a",), ["1"]), ValidationError, "labels must be integers, got str32 values"),
        (
            lambda: build_ensemble([[[1.0]]], [0]).subset([]),
            ValidationError,
            "subset needs at least one classifier name",
        ),
        (lambda: argmax_classes(np.ones(2)), DimensionError, "fused distributions must form an (S, C) matrix"),
        (lambda: nll(np.ones(2), [0, 1]), DimensionError, "fused distributions must form an (S, C) matrix"),
        (
            lambda: nll(np.full((1, 2), 0.5), LabeledSamples(("a",), [2])),
            LabelRangeError,
            "labels must lie in [0, 2)",
        ),
        (lambda: nll(np.full((1, 2), 0.5), [[0]]), DimensionError, "labels must be 1-D, got shape (1, 1)"),
        (lambda: nll(np.full((1, 2), 0.5), [0.9]), ValidationError, "labels must be integers, got float64 values"),
        (lambda: accuracy(np.full((1, 2), 0.5), [1.9]), ValidationError, "labels must be integers, got float64 values"),
        (
            lambda: confusion_matrix(np.full((1, 2), 0.5), [0.5], 2),
            ValidationError,
            "labels must be integers, got float64 values",
        ),
        (
            lambda: confusion_matrix(np.full((1, 2), 0.5), [0], 0),
            DimensionError,
            "num_classes must be >= 1",
        ),
    ],
    ids=[
        "load-no-classes",
        "load-float-classes",
        "load-string-classes",
        "load-bool-classes",
        "labels-no-classes",
        "labels-float-classes",
        "labels-string-classes",
        "labels-bool-classes",
        "no-class-column",
        "labels-2d",
        "labels-negative",
        "labels-float",
        "labels-bool",
        "labels-text",
        "subset-empty",
        "argmax-vector",
        "nll-vector",
        "nll-labeled-samples-range",
        "nll-labels-2d",
        "nll-labels-float",
        "accuracy-labels-float",
        "confusion-labels-float",
        "confusion-no-classes",
    ],
)
def test_each_error_path_raises_its_class_and_message(call, error, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
