import math

import numpy as np
import pytest

from softvote import (
    ClassifierProfile,
    ConfigError,
    GeneratorSpec,
    OracleScopeError,
    ValidationError,
    accuracy,
    brute_force_weights,
    fuse_majority,
    generate,
    nll,
)
from softvote import synthgen
from softvote.synthgen import _simplex_grid

from conftest import build_ensemble


def _spec(profiles, num_classes=10, num_samples=100, seed=0):
    return GeneratorSpec(num_classes, num_samples, tuple(profiles), seed=seed)


def _stacked(inputs):
    """Every classifier's probabilities as one (N, S, C) array."""
    return np.stack([ps.probs for ps in inputs.classifiers])


class TestGeneratorSpec:
    def test_profile_bounds(self):
        ClassifierProfile("edge", 1.0, 0.0)  # endpoints are legal
        with pytest.raises(ConfigError):
            ClassifierProfile("m", 0.0, 1.0)
        with pytest.raises(ConfigError):
            ClassifierProfile("m", 1.1, 1.0)
        with pytest.raises(ConfigError):
            ClassifierProfile("m", 0.5, -0.5)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            _spec([])
        with pytest.raises(ConfigError):
            _spec([ClassifierProfile("a", 0.9, 1.0)], num_samples=0)
        with pytest.raises(ConfigError):
            _spec([ClassifierProfile("a", 0.9, 1.0), ClassifierProfile("a", 0.8, 1.0)])


    @pytest.mark.parametrize(
        "args, message",
        [
            (("a", "0.9", 2.0), "accuracy must be a real number, got '0.9'"),
            (("a", 0.9, "2"), "sharpness must be a real number, got '2'"),
            (("a", True, 2.0), "accuracy must be a real number, got True"),
            (("a", 0.9, None), "sharpness must be a real number, got None"),
            (("a", 0.9, 1j), r"sharpness must be a real number, got 1j"),
            ((None, 0.9, 2.0), "^name must be a non-empty string, got None"),
            ((7, 0.9, 2.0), "^name must be a non-empty string, got 7"),
            (("", 0.9, 2.0), "^name must be a non-empty string, got ''"),
            # float() of a huge integer overflows; each is a ConfigError naming its field
            (("a", 10**400, 2.0), r"^accuracy must be in \(0, 1\], got 1000"),
            (("a", 0.5, 10**400), r"^sharpness must be inf or at most 1\.79.*e\+308, got 1000"),
            (("a", 0.5, -(10**400)), "^sharpness must be >= 0, got -1000"),
            # too long for repr(): the message gives its size instead
            (("a", 0.5, 10**5000), r"^sharpness must be inf or at most .*, got an integer of 16610 bits$"),
            ((10**5000, 0.9, 2.0), "^name must be a non-empty string, got an integer of 16610 bits$"),
        ],
    )
    def test_profile_rejects_wrong_types(self, args, message):
        with pytest.raises(ConfigError, match=message):
            ClassifierProfile(*args)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"num_classes": 3.5}, "num_classes must be an integer, got 3.5"),
            ({"num_classes": 3.0}, "num_classes must be an integer, got 3.0"),
            ({"num_samples": "10"}, "num_samples must be an integer, got '10'"),
            ({"num_samples": True}, "num_samples must be an integer, got True"),
            ({"profiles": ({"name": "a"},)}, "profiles must be ClassifierProfile values"),
            ({"num_samples": 10**5000}, r"^num_samples must be in \[1, 1000000\], got an integer of 16610 bits$"),
            ({"num_classes": -(10**5000)}, r"^num_classes must be in \[1, 1000\], got a negative integer of 16610 bits$"),
        ],
    )
    def test_spec_rejects_wrong_types(self, changes, message):
        args = {"num_classes": 3, "num_samples": 10, "profiles": (ClassifierProfile("a", 0.9, 1.0),)}
        args.update(changes)
        with pytest.raises(ConfigError, match=message):
            GeneratorSpec(**args)

    def test_profile_accepts_numpy_and_integral_reals(self):
        profile = ClassifierProfile("a", np.float64(0.9), 2)
        assert generate(_spec([profile], num_samples=5)).num_samples == 5

    def test_infinite_sharpness_gives_one_hot_rows(self):
        inputs = generate(_spec([ClassifierProfile("a", 0.7, float("inf"))], num_samples=50))
        rows = inputs.classifiers[0].probs
        assert np.all((rows == 0.0) | (rows == 1.0)) and np.all(rows.sum(axis=1) == 1.0)


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = _spec([ClassifierProfile("a", 0.8, 2.0), ClassifierProfile("b", 0.6, 1.0)])
        x = generate(spec)
        y = generate(spec)
        assert _stacked(x).tobytes() == _stacked(y).tobytes()
        assert x.label_array.tolist() == y.label_array.tolist()
        assert x.sample_ids == y.sample_ids

    def test_different_seeds_differ(self):
        base = _spec([ClassifierProfile("a", 0.8, 2.0)], seed=0)
        other = _spec([ClassifierProfile("a", 0.8, 2.0)], seed=1)
        assert _stacked(generate(base)).tobytes() != _stacked(generate(other)).tobytes()

    def test_perfect_sharp_classifier_has_near_zero_nll(self):
        spec = _spec([ClassifierProfile("perfect", 1.0, 40.0)], num_samples=200)
        inputs = generate(spec)
        fused = fuse_majority(inputs)
        assert nll(fused, inputs.label_array) <= 1e-6
        assert accuracy(fused, inputs.label_array) == 100.0

    def test_flat_limit_is_uniform(self):
        spec = _spec([ClassifierProfile("flat", 0.1, 0.0)], num_samples=50)
        inputs = generate(spec)
        np.testing.assert_allclose(inputs.classifiers[0].probs, 0.1, atol=1e-15)
        assert nll(fuse_majority(inputs), inputs.label_array) == pytest.approx(
            math.log(10), abs=1e-12
        )

    def test_empirical_accuracy_tracks_parameter(self):
        spec = _spec(
            [ClassifierProfile("m", 0.9, 3.0)], num_samples=10_000, seed=11
        )
        inputs = generate(spec)
        observed = accuracy(inputs.classifiers[0].probs, inputs.label_array)
        assert abs(observed - 90.0) <= 1.0

    def test_mode_mass_formula(self):
        sharpness, c = 2.5, 10
        spec = _spec([ClassifierProfile("m", 0.7, sharpness)], num_classes=c, num_samples=20)
        inputs = generate(spec)
        expected_mode = math.exp(sharpness) / (math.exp(sharpness) + c - 1)
        expected_background = 1.0 / (math.exp(sharpness) + c - 1)
        row = inputs.classifiers[0].probs[0]
        assert row.max() == pytest.approx(expected_mode, abs=1e-12)
        assert row.min() == pytest.approx(expected_background, abs=1e-12)

    def test_single_class_degenerates_to_certainty(self):
        spec = _spec([ClassifierProfile("m", 0.9, 1.0)], num_classes=1, num_samples=5)
        inputs = generate(spec)
        np.testing.assert_array_equal(inputs.classifiers[0].probs, np.ones((5, 1)))


class TestSimplexGrid:
    def test_two_classifier_count_and_order(self):
        points = list(_simplex_grid(2, 100))
        assert len(points) == 101
        assert points[0] == (0, 100)
        assert points[-1] == (100, 0)
        assert points == sorted(points)

    def test_three_classifier_grid(self):
        points = list(_simplex_grid(3, 2))
        assert points == [
            (0, 0, 2),
            (0, 1, 1),
            (0, 2, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 0),
        ]
        assert all(sum(p) == 2 for p in points)


class TestBruteForceWeights:
    def test_single_classifier(self):
        spec = _spec([ClassifierProfile("only", 0.8, 2.0)], num_samples=60)
        inputs = generate(spec)
        weights, value = brute_force_weights(inputs, 0.5)
        np.testing.assert_array_equal(weights, [1.0])
        assert value == nll(inputs.classifiers[0].probs, inputs.label_array)

    def test_perfect_vs_uniform_optimum_at_corner(self, one_hot_pair):
        weights, value = brute_force_weights(one_hot_pair, 0.01)
        assert weights[0] >= 0.98
        assert value <= nll(one_hot_pair.classifiers[0].probs, one_hot_pair.label_array) + 1e-12

    def test_oracle_never_worse_than_majority(self):
        spec = _spec(
            [ClassifierProfile("a", 0.85, 2.5), ClassifierProfile("b", 0.6, 1.5)],
            num_samples=400,
            seed=5,
        )
        inputs = generate(spec)
        _, value = brute_force_weights(inputs, 0.01)
        assert value <= nll(fuse_majority(inputs), inputs.label_array) + 1e-12

    def test_beats_every_grid_point(self):
        spec = _spec(
            [ClassifierProfile("a", 0.8, 2.0), ClassifierProfile("b", 0.65, 1.0)],
            num_samples=120,
            seed=2,
        )
        inputs = generate(spec)
        _, best = brute_force_weights(inputs, 0.1)
        for k in range(11):
            w = np.array([k, 10 - k], dtype=float) / 10
            from softvote import fuse_weighted

            assert best <= nll(fuse_weighted(inputs, w), inputs.label_array) + 1e-15

    def test_scope_and_step_validation(self, one_hot_pair):
        big = build_ensemble(
            [one_hot_pair.classifiers[0].probs] * 4, one_hot_pair.label_array, names=list("abcd")
        )
        with pytest.raises(OracleScopeError):
            brute_force_weights(big, 0.01)
        with pytest.raises(ValidationError):
            brute_force_weights(one_hot_pair, 0.6)
        with pytest.raises(ValidationError):
            brute_force_weights(one_hot_pair, 0.0)
        with pytest.raises(ValidationError, match="^grid_step must be in .*, got an integer of 16610 bits$"):
            brute_force_weights(one_hot_pair, 10**5000)

    @pytest.mark.parametrize("step", ["x", True, None])
    def test_refuses_a_step_that_is_not_a_real(self, one_hot_pair, step):
        with pytest.raises(ValidationError) as info:
            brute_force_weights(one_hot_pair, step)
        message = f"grid_step must be in (0, 0.5], got {step!r}"
        assert (type(info.value), str(info.value)) == (ValidationError, message)

    # Grids of 100 001, 50 015 001, 104 196 and 176 851 points; 1 / 5e-324 is inf.
    @pytest.mark.parametrize("n, step", [(2, 1 / 100_000), (3, 1e-4), (3, 0.0022), (4, 0.01), (2, 5e-324)])
    def test_refuses_a_grid_over_the_point_limit_before_building_it(self, monkeypatch, one_hot_pair, n, step):
        probs = one_hot_pair.classifiers[0].probs
        inputs = build_ensemble([probs] * n, one_hot_pair.label_array, names=list("abcd")[:n])
        monkeypatch.setattr(synthgen, "_simplex_grid", lambda n, divisions: pytest.fail("grid built"))
        with pytest.raises(OracleScopeError) as info:
            brute_force_weights(inputs, step)
        assert str(info.value) == f"grid_step {step!r} gives more than 100000 grid points for {n} classifiers"

    def test_the_largest_grid_is_searched(self, one_hot_pair):
        # 1 / 99999 gives 99 999 divisions: 100 000 points for two classifiers.
        weights, value = brute_force_weights(one_hot_pair, 1 / 99_999)
        assert weights[0] >= 0.98
        assert value <= nll(one_hot_pair.classifiers[0].probs, one_hot_pair.label_array) + 1e-12

    def test_a_single_classifier_takes_any_step(self, one_hot_pair):
        weights, _ = brute_force_weights(one_hot_pair.subset(["perfect"]), 5e-324)
        np.testing.assert_array_equal(weights, [1.0])
