"""The blocked population scorer must equal fuse-then-nll bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softvote import EmptyInputError, fuse_weighted, metrics, nll

from conftest import random_ensemble


def _expected(inputs, genes, idx):
    """Row by row, the way the search scored a chromosome before batching."""
    out = []
    for row in genes:
        if row.sum() <= metrics.DEGENERATE_GENE_SUM:
            out.append(np.inf)
        else:
            out.append(nll(fuse_weighted(inputs, row)[idx], inputs.label_array[idx]))
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
        assert got[1] == nll(inputs.tensor[0], inputs.label_array)

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
