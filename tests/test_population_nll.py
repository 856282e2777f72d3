"""The blocked population scorer must equal fuse-then-nll bit for bit.

Both sides share one fusion function, ``core._weighted_fusion``, and one
NLL step, ``metrics._mean_nll``; ``TestOneKernel`` pins that every entry
point goes through them. A row that fusion refuses scores +inf, and
``TestOneRule`` pins that the two sides refuse the same rows.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softvote import (
    DegenerateWeightsError,
    EmptyInputError,
    GAConfig,
    as_weights,
    brute_force_weights,
    core,
    evaluate,
    fuse_majority,
    fuse_weighted,
    metrics,
    nll,
    run_ga,
)
from softvote.synthgen import _simplex_grid

from conftest import random_ensemble


def _expected(inputs, genes, idx):
    """Row by row: +inf where fusion refuses the row, else the NLL of its fusion."""
    out = []
    for row in genes:
        try:
            fused = fuse_weighted(inputs, row)
        except DegenerateWeightsError:
            out.append(np.inf)
        else:
            out.append(nll(fused[idx], inputs.label_array[idx]))
    return out


def _assert_exact(inputs, genes, idx):
    got = metrics._population_nll(genes, metrics._true_class_probs(inputs)[:, idx])
    assert got.shape == (genes.shape[0],)
    for p, want in enumerate(_expected(inputs, genes, idx)):
        assert got[p] == want, f"row {p}: {got[p]!r} != {want!r}"


def _genes(rng, p, n):
    genes = rng.random((p, n))
    genes[0] = 0.5
    if p > 1:
        genes[1] = 0.0  # degenerate: scores inf
    if p > 2:
        genes[2, : max(1, n // 2)] = 0.0  # some classifiers switched off
    if p > 3:
        genes[3, -1] = 0.0
    return genes


# (classifiers, samples, classes, population). Eight or more classifiers
# take numpy's pairwise summation path for the gene sum; 5000 samples put
# 13 rows in a scratch block, so 51 rows span four blocks; 70 000 samples
# make every row a block of its own.
SHAPES = [
    (1, 5, 2, 3),
    (2, 7, 3, 4),
    (3, 100, 4, 60),
    (8, 5000, 10, 51),
    (9, 333, 5, 7),
    (17, 1000, 3, 9),
    (4, 70000, 3, 3),
]


class TestPopulationNll:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_rows_equal_fuse_then_nll(self, shape):
        n, s, c, p = shape
        rng = np.random.default_rng(sum(shape))
        inputs = random_ensemble(rng, n, s, c)
        genes = _genes(rng, p, n)
        _assert_exact(inputs, genes, np.arange(s))
        _assert_exact(inputs, genes, np.sort(rng.choice(s, size=max(1, s // 2), replace=False)))

    def test_population_spans_several_blocks(self):
        rng = np.random.default_rng(3)
        inputs = random_ensemble(rng, 8, 5000, 10)
        assert 51 > metrics._SCORE_BLOCK_CELLS // 5000
        _assert_exact(inputs, _genes(rng, 51, 8), np.arange(5000))

    def test_all_zero_rows_score_inf(self):
        rng = np.random.default_rng(4)
        inputs = random_ensemble(rng, 3, 20, 4)
        genes = np.zeros((3, 3))
        genes[1] = [0.2, 0.0, 0.0]
        got = metrics._population_nll(genes, metrics._true_class_probs(inputs))
        assert got[0] == np.inf and got[2] == np.inf
        assert got[1] == nll(inputs.classifiers[0].probs, inputs.label_array)

    def test_no_samples_is_an_error(self):
        with pytest.raises(EmptyInputError):
            metrics._population_nll(np.full((2, 3), 0.5), np.empty((3, 0)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 10),
        s=st.integers(1, 60),
        c=st.integers(2, 6),
        p=st.integers(1, 40),
        block_cells=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_block_size_gives_the_same_scores(self, n, s, c, p, block_cells, seed):
        rng = np.random.default_rng(seed)
        inputs = random_ensemble(rng, n, s, c)
        genes = _genes(rng, p, n)
        genes[rng.random(genes.shape) < 0.3] = 0.0
        idx = np.sort(rng.choice(s, size=int(rng.integers(1, s + 1)), replace=False))
        with mock.patch.object(metrics, "_SCORE_BLOCK_CELLS", block_cells):
            _assert_exact(inputs, genes, idx)


FLOOR = core._WEIGHT_SUM_FLOOR
# Genes around every edge of the rule: zeros of both signs, subnormals, and
# values whose sums land on either side of the floor.
EDGE_GENES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-13, FLOOR / 2, FLOOR, 1.5 * FLOOR, 0.5]),
    st.floats(0.0, 3 * FLOOR),
    st.floats(0.0, 1.0),
)


class TestOneRule:
    """The search scores +inf exactly the weight vectors that fusion refuses."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(EDGE_GENES, min_size=n, max_size=n), min_size=1)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=[[1e-13, 0.0]], seed=1)
    @example(rows=[[5e-324, 0.0]], seed=1)
    @example(rows=[[1e-320, 1e-320]], seed=1)
    @example(rows=[[1.5 * FLOOR, 0.0], [FLOOR, -0.0], [-0.0, -0.0]], seed=1)
    def test_inf_exactly_where_as_weights_refuses(self, rows, seed):
        genes = np.array(rows, dtype=np.float64)
        n = genes.shape[1]
        inputs = random_ensemble(np.random.default_rng(seed), n, 20, 3)
        got = metrics._population_nll(genes, metrics._true_class_probs(inputs))
        for p, row in enumerate(genes):
            try:
                as_weights(row, n)
            except DegenerateWeightsError:
                assert got[p] == np.inf, f"row {p} {row.tolist()}: fusion refuses it, the search scored {got[p]!r}"
                continue
            fused = fuse_weighted(inputs, row)
            want = nll(fused, inputs.label_array)
            assert got[p] == want, f"row {p} {row.tolist()}: {got[p]!r} != {want!r}"
            np.testing.assert_allclose(fused.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def _repeated(rng, p, n, distinct):
    """p rows from a small pool plus two all-zero, two -0.0 and two 0.5 rows, shuffled."""
    pool = np.vstack([np.zeros(n), np.full(n, -0.0), np.full(n, 0.5), rng.random((distinct, n))])
    pool[3:][rng.random((distinct, n)) < 0.3] = 0.0
    picks = np.concatenate([rng.integers(len(pool), size=p), [0, 0, 1, 1, 2, 2]])
    return pool[rng.permutation(picks)]


class TestRepeatedRows:
    """Each distinct row is scored once; every repeat must still get its own exact score."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 10),
        s=st.integers(1, 60),
        c=st.integers(2, 6),
        p=st.integers(0, 40),
        distinct=st.integers(1, 5),
        block_cells=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_repeat_equals_fuse_then_nll_and_its_row_alone(
        self, n, s, c, p, distinct, block_cells, seed
    ):
        rng = np.random.default_rng(seed)
        inputs = random_ensemble(rng, n, s, c)
        genes = _repeated(rng, p, n, distinct)
        idx = np.sort(rng.choice(s, size=int(rng.integers(1, s + 1)), replace=False))
        true_probs = metrics._true_class_probs(inputs)[:, idx]
        with mock.patch.object(metrics, "_SCORE_BLOCK_CELLS", block_cells):
            _assert_exact(inputs, genes, idx)
            got = metrics._population_nll(genes, true_probs)
            for row in range(genes.shape[0]):
                alone = metrics._population_nll(genes[row : row + 1], true_probs)[0]
                assert got[row] == alone, f"row {row}: {got[row]!r} != {alone!r}"

    # N > 3 runs wherever the grid is within the population limit: 286 and 330 points.
    @pytest.mark.parametrize("n, step", [(1, 0.01), (2, 0.01), (3, 0.02), (4, 0.1), (8, 0.25)])
    def test_brute_force_is_the_row_by_row_argmin(self, n, step):
        rng = np.random.default_rng(n)
        inputs = random_ensemble(rng, n, 300, 4)
        weights, value = brute_force_weights(inputs, grid_step=step)
        divisions = round(1.0 / step)
        grid = np.array(list(_simplex_grid(n, divisions)), dtype=np.float64) / divisions
        want = _expected(inputs, grid, np.arange(300))
        best = int(np.argmin(want))
        assert weights.tobytes() == grid[best].tobytes()
        assert value == want[best]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of calls to the shared fusion and NLL functions, through every module that holds them."""
    calls = {"fusion": 0, "nll": 0}

    def counting(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    fusion = counting("fusion", core._weighted_fusion)
    monkeypatch.setattr(core, "_weighted_fusion", fusion)
    monkeypatch.setattr(metrics, "_weighted_fusion", fusion)
    monkeypatch.setattr(metrics, "_mean_nll", counting("nll", metrics._mean_nll))
    return calls


class TestOneKernel:
    @pytest.mark.parametrize(
        "call, scores",
        [
            (lambda inputs: fuse_weighted(inputs, [1.0, 2.0, 3.0]), False),
            (fuse_majority, False),
            (evaluate, True),
            (lambda inputs: evaluate(inputs, [1.0, 2.0, 3.0]), True),
            (lambda inputs: run_ga(inputs, GAConfig(population_size=10, generations=2)), True),
            (lambda inputs: brute_force_weights(inputs, grid_step=0.25), True),
        ],
        ids=["fuse_weighted", "fuse_majority", "evaluate", "evaluate-weighted", "run_ga", "brute_force_weights"],
    )
    def test_every_fusion_and_score_goes_through_the_shared_functions(self, kernel_calls, call, scores):
        inputs = random_ensemble(np.random.default_rng(5), 3, 40, 4)
        call(inputs)
        assert kernel_calls["fusion"] >= 1
        assert (kernel_calls["nll"] >= 1) == scores

    def test_nll_and_the_population_scorer_share_the_nll_step(self, kernel_calls):
        inputs = random_ensemble(np.random.default_rng(6), 3, 40, 4)
        fused = fuse_majority(inputs)
        assert kernel_calls == {"fusion": 1, "nll": 0}
        nll(fused, inputs.label_array)
        assert kernel_calls == {"fusion": 1, "nll": 1}
        metrics._population_nll(np.full((4, 3), 0.5), metrics._true_class_probs(inputs))
        assert kernel_calls == {"fusion": 2, "nll": 2}  # four equal rows: one block of one distinct row

    def test_fuse_weighted_holds_at_most_two_fused_arrays(self):
        inputs = random_ensemble(np.random.default_rng(7), 8, 20_000, 10)
        one = inputs.num_samples * inputs.num_classes * 8
        tracemalloc.start()
        try:
            fused = fuse_weighted(inputs, np.arange(1.0, 9.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fused.shape == (20_000, 10)
        assert peak <= 2 * one + 64 * 1024, peak
