import math
import os

import numpy as np
import pytest

from softvote import (
    ClassifierProfile,
    ConfigError,
    EmptyInputError,
    GAConfig,
    GeneratorSpec,
    brute_force_weights,
    fuse_majority,
    fuse_weighted,
    generate,
    make_rng,
    metrics,
    nll,
    run_ga,
)
from softvote.ga import _breed, _draw_fitness_sample, _initial_genes, _mutate_rows, _parent_rows

from conftest import build_ensemble, random_ensemble


class TestGAConfig:
    def test_defaults(self):
        config = GAConfig()
        assert config.population_size == 50
        assert config.elite_fraction == 0.20
        assert config.extra_parent_fraction == 0.10
        assert config.mutation_rate == 0.05
        assert config.generations == 5
        assert config.fitness_sample_fraction == 0.50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"elite_fraction": 0.0},
            {"elite_fraction": 1.5},
            {"extra_parent_fraction": 0.0},
            {"fitness_sample_fraction": 0.0},
            {"mutation_rate": 1.5},
            {"mutation_rate": -0.1},
            {"seed": -1},
            {"population_size": 4},  # floor(0.2 * 4) = 0 elites
            {"population_size": 100_001},
            {"generations": 100_001},
            {"elite_fraction": 10**400},  # float() of it would overflow
            {"mutation_rate": 10**400},
            {"population_size": 9},  # 1 elite, floor(0.1 * 8) = 0 extras: one parent
            {"population_size": 2, "elite_fraction": 0.5},
            # too long for repr(): the message gives the size instead
            {"seed": 10**5000},
            {"elite_fraction": 10**5000},
            {"population_size": 10**5000},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            GAConfig(**kwargs)

    def test_mutation_rate_zero_is_allowed(self):
        GAConfig(mutation_rate=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"elite_fraction": "abc"},
            {"elite_fraction": True},
            {"extra_parent_fraction": "0.1"},
            {"extra_parent_fraction": False},
            {"fitness_sample_fraction": None},
            {"fitness_sample_fraction": [0.5]},
            {"mutation_rate": True},
            {"mutation_rate": 0.1j},
        ],
    )
    def test_rejects_non_real_fractions(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            GAConfig(**kwargs)

    def test_accepts_any_real_fraction(self):
        config = GAConfig(elite_fraction=np.float64(0.25), mutation_rate=0, extra_parent_fraction=1)
        assert config.elite_fraction == 0.25


class TestInitialGenes:
    def test_shape_and_baseline(self):
        genes = _initial_genes(8, GAConfig(seed=0), make_rng(0))
        assert genes.shape == (50, 8)
        np.testing.assert_array_equal(genes[0], np.full(8, 0.5))
        assert np.all(genes >= 0.0) and np.all(genes <= 1.0)

    def test_same_seed_same_genes(self):
        a = _initial_genes(3, GAConfig(), make_rng(7))
        b = _initial_genes(3, GAConfig(), make_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_one_draw_of_the_whole_array(self):
        # Rows 1.. are the stream's first random((P, N)) draw, and nothing else is drawn.
        rng = make_rng(4)
        genes = _initial_genes(3, GAConfig(), rng)
        replay = make_rng(4)
        np.testing.assert_array_equal(genes[1:], replay.random((50, 3))[1:])
        assert rng.random() == replay.random()


def _row_nll(genes, inputs):
    """One gene row's fitness on every sample, as run_ga scores a population."""
    genes = np.array([genes], dtype=np.float64)
    return metrics._population_nll(genes, metrics._true_class_probs(inputs))[0]


class TestPopulationFitness:
    def test_equal_weights_match_majority_nll(self):
        inputs = random_ensemble(np.random.default_rng(0), 4, 40, 5)
        assert _row_nll(np.full(4, 0.5), inputs) == nll(fuse_majority(inputs), inputs.label_array)

    def test_perfect_classifier_scores_zero(self, one_hot_pair):
        assert _row_nll([1.0, 0.0], one_hot_pair) == 0.0

    def test_all_zero_genes_score_infinity(self):
        inputs = random_ensemble(np.random.default_rng(1), 2, 5, 3)
        assert _row_nll([0.0, 0.0], inputs) == math.inf


class TestDrawFitnessSample:
    def test_half_of_4000(self):
        idx = _draw_fitness_sample(4000, 0.5, make_rng(0))
        assert idx.shape == (2000,)
        assert len(set(idx.tolist())) == 2000
        assert np.all(np.diff(idx) > 0)

    def test_single_sample_minimum(self):
        np.testing.assert_array_equal(_draw_fitness_sample(1, 0.5, make_rng(0)), [0])

    def test_full_fraction_is_everything(self):
        np.testing.assert_array_equal(
            _draw_fitness_sample(10, 1.0, make_rng(0)), np.arange(10)
        )

    def test_deterministic(self):
        np.testing.assert_array_equal(
            _draw_fitness_sample(100, 0.5, make_rng(3)),
            _draw_fitness_sample(100, 0.5, make_rng(3)),
        )


class TestParentRows:
    def test_fifty_gives_fourteen_parents(self):
        rows = _parent_rows(np.arange(50.0), GAConfig(), make_rng(0))
        assert rows.shape == (14,)
        assert rows[:10].tolist() == list(range(10))  # ten elites, best first
        assert all(10 <= r < 50 for r in rows[10:].tolist())

    def test_elites_sorted_best_first(self):
        values = np.array([5, 1, 3, 2, 4, 9, 8, 7, 6, 0], dtype=np.float64)
        rows = _parent_rows(values, GAConfig(elite_fraction=0.3), make_rng(0))
        assert values[rows[:3]].tolist() == [0, 1, 2]

    def test_equal_fitness_ties_break_by_index(self):
        rows = _parent_rows(np.ones(50), GAConfig(), make_rng(0))
        assert rows[:10].tolist() == list(range(10))

    def test_extras_are_distinct_non_elites(self):
        values = make_rng(5).permutation(50).astype(np.float64)
        elites = set(np.argsort(values)[:10].tolist())
        rng = make_rng(6)
        for _ in range(200):
            extras = _parent_rows(values, GAConfig(), rng)[10:].tolist()
            assert len(extras) == len(set(extras)) == 4
            assert not elites & set(extras)

    def test_no_extras_draws_nothing(self):
        # 0.1 * (10 - 2) non-elites keeps no extra, and the stream is left where it was.
        rng = make_rng(7)
        rows = _parent_rows(np.arange(10.0)[::-1].copy(), GAConfig(), rng)
        assert rows.tolist() == [9, 8]
        assert rng.random() == make_rng(7).random()


class TestMutateRows:
    def test_zero_rate_is_identity(self):
        rows = np.array([[0.1, 0.9], [0.4, 0.6]])
        before = rows.copy()
        assert _mutate_rows(rows, 0.0, make_rng(0)) == [False, False]
        np.testing.assert_array_equal(rows, before)

    def test_rate_one_redraws_exactly_one_gene_in_place(self):
        rows = np.full((200, 8), 0.5)
        assert _mutate_rows(rows, 1.0, make_rng(2)) == [True] * 200
        assert (rows != 0.5).sum(axis=1).tolist() == [1] * 200
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)

    def test_monte_carlo_mutation_count(self):
        # 14 rows at rate 0.05: binomial mean 0.7 per call.
        rng = make_rng(3)
        rows = np.full((14, 8), 0.5)
        runs = 10_000
        total = sum(sum(_mutate_rows(rows, 0.05, rng)) for _ in range(runs))
        assert abs(total / runs - 0.7) <= 0.05

    def test_mutation_touches_at_most_one_gene(self):
        # At rate 1/2 the flags name exactly the rows that changed, by one gene each.
        rows = np.full((200, 8), 0.5)
        mutated = _mutate_rows(rows, 0.5, make_rng(4))
        changed = (rows != 0.5).sum(axis=1)
        assert changed.tolist() == [int(hit) for hit in mutated]
        assert 0 < sum(mutated) < 200


def _bred(parents, size, seed):
    """``size`` rows: ``parents`` then children bred from them; unbred rows stay NaN."""
    genes = np.full((size, len(parents[0])), np.nan)
    genes[: len(parents)] = parents
    _breed(genes, len(parents), make_rng(seed))
    return genes


class TestBreed:
    def test_no_children_when_full(self):
        np.testing.assert_array_equal(_bred([[0.1], [0.9]], 2, 0), [[0.1], [0.9]])

    def test_parent_rows_unchanged(self):
        genes = _bred([[0.1, 0.2], [0.8, 0.9]], 6, 0)
        np.testing.assert_array_equal(genes[:2], [[0.1, 0.2], [0.8, 0.9]])
        assert not np.isnan(genes).any()

    def test_identical_parents_breed_identical_children(self):
        genes = _bred([[0.3, 0.7], [0.3, 0.7]], 10, 0)
        np.testing.assert_array_equal(genes[2:], np.tile([0.3, 0.7], (8, 1)))

    def test_monte_carlo_gene_mixing(self):
        # zeros x ones parents: every child gene is a Bernoulli(1/2) pick.
        children = _bred([np.zeros(8), np.ones(8)], 10_002, 1)[2:]
        assert set(np.unique(children).tolist()) <= {0.0, 1.0}
        per_gene = children.mean(axis=0)
        assert np.all(per_gene >= 0.48) and np.all(per_gene <= 0.52)

    def test_children_take_each_gene_from_a_parent(self):
        parents = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
        children = _bred(parents, 500, 2)[3:]
        for j, column in enumerate(children.T):
            assert set(column.tolist()) == {row[j] for row in parents}


def _two_classifier_inputs(seed):
    spec = GeneratorSpec(
        num_classes=10,
        num_samples=1500,
        profiles=(
            ClassifierProfile("strong", 0.92, 3.0),
            ClassifierProfile("mid", 0.65, 2.0),
        ),
        seed=seed,
    )
    return generate(spec)


def _stats(snapshot):
    """A snapshot's (generation, best NLL, mean NLL), the NLLs as float hex."""
    fitness = snapshot.fitness
    return snapshot.generation, float(fitness.min()).hex(), float(np.mean(fitness)).hex()


def _logged_run(inputs, config, **kwargs):
    """run_ga's result and the _stats of each generation it reported."""
    log = []
    result = run_ga(inputs, config, on_generation=lambda snapshot: log.append(_stats(snapshot)), **kwargs)
    return result, log


def _assert_same_result(a, b):
    """Two (result, log) pairs from _logged_run hold the same bytes."""
    (result_a, log_a), (result_b, log_b) = a, b
    assert result_a.weights.tobytes() == result_b.weights.tobytes()
    assert repr(result_a.full_data_nll) == repr(result_b.full_data_nll)
    assert log_a == log_b


class TestRunGA:
    def test_deterministic_per_seed(self):
        inputs = _two_classifier_inputs(0)
        _assert_same_result(_logged_run(inputs, GAConfig(seed=11)), _logged_run(inputs, GAConfig(seed=11)))

    def test_thread_count_does_not_change_result(self):
        inputs = _two_classifier_inputs(1)
        _assert_same_result(
            _logged_run(inputs, GAConfig(seed=5), threads=1),
            _logged_run(inputs, GAConfig(seed=5), threads=max(2, os.cpu_count() or 2)),
        )

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "x", True, None])
    def test_rejects_bad_thread_counts(self, threads):
        inputs = _two_classifier_inputs(1)
        with pytest.raises(ConfigError, match="threads"):
            run_ga(inputs, GAConfig(seed=5, generations=1), threads=threads)

    def test_log_has_one_entry_per_generation(self):
        inputs = _two_classifier_inputs(2)
        _, log = _logged_run(inputs, GAConfig(generations=3, seed=0))
        assert [generation for generation, _, _ in log] == [0, 1, 2]

    def test_single_classifier_reduces_to_its_nll(self):
        inputs = random_ensemble(np.random.default_rng(5), 1, 60, 4)
        result = run_ga(inputs, GAConfig(seed=9))
        expected = nll(inputs.classifiers[0].probs, inputs.label_array)
        assert result.full_data_nll == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(result.weights / result.weights.sum(), [1.0])

    def test_never_worse_than_majority(self):
        for seed in range(5):
            inputs = _two_classifier_inputs(seed)
            result = run_ga(inputs, GAConfig(seed=seed))
            majority = nll(fuse_majority(inputs), inputs.label_array)
            assert result.full_data_nll <= majority + 1e-12

    def test_result_nll_matches_reported_weights(self):
        inputs = _two_classifier_inputs(3)
        result = run_ga(inputs, GAConfig(seed=4))
        refused = fuse_weighted(inputs, result.weights)
        assert nll(refused, inputs.label_array) == result.full_data_nll

    def test_strong_plus_noise_matches_grid_oracle(self):
        spec = GeneratorSpec(
            num_classes=10,
            num_samples=2000,
            profiles=(
                ClassifierProfile("strong", 0.95, 4.0),
                ClassifierProfile("noise", 0.12, 0.1),
            ),
            seed=0,
        )
        inputs = generate(spec)
        result = run_ga(inputs, GAConfig(seed=0))
        _, oracle_nll = brute_force_weights(inputs, grid_step=0.01)
        assert result.full_data_nll <= oracle_nll + 0.01

    def test_generation_mechanics_via_callback(self):
        inputs = _two_classifier_inputs(4)
        snapshots = []
        run_ga(inputs, GAConfig(seed=8), on_generation=snapshots.append)
        assert [s.generation for s in snapshots] == [0, 1, 2, 3, 4]
        for s in snapshots:
            assert s.genes.shape == s.next_genes.shape == (50, 2)
            assert s.fitness.shape == (50,)
            assert s.parent_rows.shape == s.mutated.shape == (14,)
            assert s.mutated.dtype == bool
            assert np.all(s.next_genes >= 0.0) and np.all(s.next_genes <= 1.0)
            # the generation's best (lowest index on a tie) survives untouched at the head
            np.testing.assert_array_equal(s.next_genes[0], s.genes[np.argmin(s.fitness)])

    def test_observer_does_not_change_the_result(self):
        inputs = _two_classifier_inputs(5)
        config = GAConfig(seed=3, generations=8, mutation_rate=0.4)
        quiet = run_ga(inputs, config)
        watched, _ = _logged_run(inputs, config)
        assert watched.weights.tobytes() == quiet.weights.tobytes()
        assert repr(watched.full_data_nll) == repr(quiet.full_data_nll)

    def test_observer_writes_cannot_reach_the_search(self):
        inputs = _two_classifier_inputs(6)
        config = GAConfig(seed=4, generations=8, mutation_rate=0.4)

        log = []

        def vandalise(snapshot):
            log.append(_stats(snapshot))
            for name in ("sample_indices", "genes", "fitness", "parent_rows", "mutated", "next_genes"):
                array = getattr(snapshot, name)
                assert not array.flags.writeable, name
                array.setflags(write=True)
                array[...] = 0

        vandalised = run_ga(inputs, config, on_generation=vandalise)
        _assert_same_result((vandalised, log), _logged_run(inputs, config))

    def test_one_generation_replays_the_documented_draw_order(self):
        # Every draw of the module docstring's order, made by hand on a
        # fresh stream, must rebuild the first snapshot exactly.
        inputs = random_ensemble(np.random.default_rng(8), 5, 300, 6)
        config = GAConfig(seed=13, generations=1, mutation_rate=0.5, extra_parent_fraction=0.3)
        snapshots = []
        run_ga(inputs, config, on_generation=snapshots.append)
        p, n, s = config.population_size, inputs.n_classifiers, inputs.num_samples
        n_elite = math.floor(config.elite_fraction * p)
        n_extra = math.floor(config.extra_parent_fraction * (p - n_elite))

        rng = make_rng(config.seed)
        genes = rng.random((p, n))
        genes[0] = 0.5
        idx = np.sort(rng.choice(s, math.floor(config.fitness_sample_fraction * s), replace=False))
        values = [nll(fuse_weighted(inputs, row)[idx], inputs.label_array[idx]) for row in genes]
        ranked = sorted(range(p), key=lambda i: (values[i], i))
        non_elites = sorted(ranked[n_elite:])
        extras = rng.choice(p - n_elite, n_extra, replace=False)
        parent_rows = ranked[:n_elite] + [non_elites[j] for j in extras.tolist()]
        next_genes = [genes[r].copy() for r in parent_rows]
        mutated = [False]
        for row in next_genes[1:]:
            mutated.append(bool(rng.random() < config.mutation_rate))
            if mutated[-1]:
                value = rng.random()
                row[rng.integers(n)] = value
        n_parents = len(parent_rows)
        for _ in range(n_parents, p):
            a, b = rng.choice(n_parents, 2, replace=False)
            next_genes.append(np.where(rng.random(n) < 0.5, next_genes[a], next_genes[b]))

        (snap,) = snapshots
        assert snap.sample_indices.tobytes() == idx.tobytes()
        assert snap.genes.tobytes() == genes.tobytes()
        assert snap.fitness.tolist() == values
        assert snap.parent_rows.tolist() == parent_rows
        assert snap.mutated.tolist() == mutated
        assert any(mutated) and not all(mutated)
        assert snap.next_genes.tobytes() == np.array(next_genes).tobytes()

    def test_requires_two_samples(self):
        inputs = random_ensemble(np.random.default_rng(6), 2, 1, 3)
        with pytest.raises(EmptyInputError):
            run_ga(inputs, GAConfig(seed=0))

    def test_baseline_always_in_final_selection(self, one_hot_pair):
        # Even a 1-generation run on 4 samples never loses to majority.
        result = run_ga(one_hot_pair, GAConfig(generations=1, seed=123))
        majority = nll(fuse_majority(one_hot_pair), one_hot_pair.label_array)
        assert result.full_data_nll <= majority + 1e-12

    def test_baseline_wins_where_only_equal_weights_are_optimal(self):
        # Two classifiers that mirror each other, so 0.5/0.5 is the unique
        # optimum, at ln 2. On a 4-sample subsample the initial 0.5 row can
        # lose and be mutated away, so only the final selection's baseline
        # row keeps every seed at ln 2.
        first, second = np.array([[0.9, 0.1]] * 20), np.array([[0.1, 0.9]] * 20)
        inputs = build_ensemble([np.vstack((first, second)), np.vstack((second, first))], [0] * 40)
        for seed in range(200):
            config = GAConfig(
                population_size=2, elite_fraction=1.0, extra_parent_fraction=0.5, mutation_rate=1.0,
                generations=1, fitness_sample_fraction=0.1, seed=seed,
            )
            result = run_ga(inputs, config)
            assert result.full_data_nll <= math.log(2) + 1e-12, seed


# run_ga results recorded before population scoring was batched: the
# weights as float hex, repr(full_data_nll), and each generation's _stats.
# Recorded with numpy 2.4 on x86-64 (AVX-512); a numpy build whose float64
# log differs in the last bit would move them.
PINNED_SEARCHES = {
    "8x600x10": (
        GeneratorSpec(
            10, 600,
            tuple(ClassifierProfile(f"c{i}", 0.5 + 0.05 * i, 1.0 + 0.3 * i) for i in range(8)),
            seed=3,
        ),
        GAConfig(seed=7),
    ),
    "3x400x4": (
        GeneratorSpec(
            4, 400,
            (
                ClassifierProfile("a", 0.9, 2.0),
                ClassifierProfile("b", 0.6, 0.5),
                ClassifierProfile("c", 0.3, 3.0),
            ),
            seed=11,
        ),
        GAConfig(seed=2, population_size=20, generations=8, mutation_rate=0.3),
    ),
    "4x300x100": (
        GeneratorSpec(
            100, 300,
            tuple(ClassifierProfile(f"w{i}", 0.4 + 0.1 * i, 3.0 + i) for i in range(4)),
            seed=5,
        ),
        GAConfig(seed=1, generations=6),
    ),
}

PINNED_RESULTS = {
    "8x600x10": (
        [
            '0x1.9cd3560386ba0p-6',
            '0x1.4cd9b58a3fb80p-4',
            '0x1.53fda7c8df548p-3',
            '0x1.87af7c31e5584p-3',
            '0x1.594c7185a3c40p-6',
            '0x1.50c603b0378dep-1',
            '0x1.e06e44e723e06p-1',
            '0x1.f097b9b95b351p-1',
        ],
        "0.7355111226727082",
        [
            (0, '0x1.d4f5e80ccf1c6p-1', '0x1.1437fe640e28fp+0'),
            (1, '0x1.b9aed2bd215dap-1', '0x1.ef66f4a95f7a6p-1'),
            (2, '0x1.a148196b84080p-1', '0x1.d99949426e17ap-1'),
            (3, '0x1.85e8bb3abb2a7p-1', '0x1.c9c895512daa6p-1'),
            (4, '0x1.864f683019516p-1', '0x1.c0d684a4f8da4p-1'),
        ],
    ),
    "3x400x4": (
        [
            '0x1.8821db9636ae2p-1',
            '0x1.b71f02bb349d0p-4',
            '0x1.ac35ddc7a1950p-4',
        ],
        "0.6584003447561168",
        [
            (0, '0x1.57f8cd6e40677p-1', '0x1.04cdaad312ba9p+0'),
            (1, '0x1.831fb266cddb3p-1', '0x1.c449105f4d455p-1'),
            (2, '0x1.784e2b984dfe1p-1', '0x1.c32a8a2e9a658p-1'),
            (3, '0x1.655cc7a37e784p-1', '0x1.9c97ba0641c3ep-1'),
            (4, '0x1.586acfade5225p-1', '0x1.60efdacbf05d7p-1'),
            (5, '0x1.5110a25e8b476p-1', '0x1.54c26987e961cp-1'),
            (6, '0x1.3fba9e625884fp-1', '0x1.445e908c9f745p-1'),
            (7, '0x1.3a3bfb36a4944p-1', '0x1.41330aaacbdb2p-1'),
        ],
    ),
    "4x300x100": (
        [
            '0x1.b1da7779c1e08p-4',
            '0x1.3c6228da227d6p-2',
            '0x1.950cbe10926b4p-2',
            '0x1.e1c220376473ap-1',
        ],
        "1.1490016977158841",
        [
            (0, '0x1.3bd6b502de41fp+0', '0x1.79d25af77e420p+0'),
            (1, '0x1.143ebfffd9346p+0', '0x1.424457dab4e3ap+0'),
            (2, '0x1.25f322e6b1989p+0', '0x1.39a1e74c2af9cp+0'),
            (3, '0x1.1e673f1bd287ep+0', '0x1.2d0633886c6a6p+0'),
            (4, '0x1.20f0bd840eab5p+0', '0x1.329a79b64bf3fp+0'),
            (5, '0x1.17344282158a6p+0', '0x1.240e6508020dcp+0'),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_search_matches_pinned_results(name):
    spec, config = PINNED_SEARCHES[name]
    weights, full_nll, log = PINNED_RESULTS[name]
    result, observed = _logged_run(generate(spec), config)
    assert [w.hex() for w in result.weights.tolist()] == weights
    assert repr(result.full_data_nll) == full_nll
    assert observed == log


# A search on continuous rows (Dirichlet, alpha 0.5): a synthgen row holds
# two distinct values, so its log inputs hardly vary, and a 1-ulp change in
# the fusion or the log would rarely move the searches above. Recorded with
# numpy 2.4 on x86-64 (AVX-512), as those were.
PINNED_CONTINUOUS = (
    [
        '0x1.bd1dbc66ca4c8p-3',
        '0x1.94f4e6f00694bp-1',
        '0x1.41fc05160ddeep-1',
        '0x1.08bb36a58f07cp-1',
        '0x1.0000000000000p-1',
        '0x1.91cf20be93960p-2',
        '0x1.0547f49217151p-1',
        '0x1.1cf3308bc67f4p-1',
    ],
    "2.4005259766054525",
    [
        (0, '0x1.341a64a1d99f0p+1', '0x1.37e68702bced7p+1'),
        (1, '0x1.34128eef7c693p+1', '0x1.35d7971d9ca5bp+1'),
        (2, '0x1.343b3b54411d9p+1', '0x1.357e5383486adp+1'),
        (3, '0x1.32c8539c66b68p+1', '0x1.3391db7c12435p+1'),
        (4, '0x1.326bf86147db5p+1', '0x1.331702a677863p+1'),
    ],
)


def test_continuous_search_matches_pinned_result():
    inputs = random_ensemble(np.random.default_rng(23), 8, 2000, 10, alpha=0.5)
    weights, full_nll, log = PINNED_CONTINUOUS
    result, observed = _logged_run(inputs, GAConfig(seed=9))
    assert [w.hex() for w in result.weights.tolist()] == weights
    assert repr(result.full_data_nll) == full_nll
    assert observed == log
