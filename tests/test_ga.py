import math
import os

import numpy as np
import pytest

from softvote import (
    BreedingError,
    Chromosome,
    ClassifierProfile,
    ConfigError,
    DimensionError,
    EmptyInputError,
    GAConfig,
    GeneratorSpec,
    ValidationError,
    brute_force_weights,
    crossover_fill,
    draw_fitness_sample,
    fitness,
    fuse_majority,
    fuse_weighted,
    generate,
    init_population,
    make_rng,
    mutate_parents,
    nll,
    run_ga,
    select_parents,
)

from conftest import random_ensemble


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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
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


class TestChromosome:
    def test_rejects_out_of_range_genes(self):
        with pytest.raises(ValidationError):
            Chromosome([0.5, 1.5])
        with pytest.raises(ValidationError):
            Chromosome([-0.1])

    def test_genes_are_frozen(self):
        ch = Chromosome([0.2, 0.8])
        assert not ch.genes.flags.writeable


class TestInitPopulation:
    def test_shape_and_baseline(self):
        pop = init_population(8, GAConfig(seed=0), make_rng(0))
        assert len(pop) == 50
        assert all(ch.genes.shape == (8,) for ch in pop)
        np.testing.assert_array_equal(pop[0].genes, np.full(8, 0.5))
        for ch in pop:
            assert np.all(ch.genes >= 0.0) and np.all(ch.genes <= 1.0)

    def test_same_seed_same_population(self):
        a = init_population(3, GAConfig(), make_rng(7))
        b = init_population(3, GAConfig(), make_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.genes, y.genes)

    def test_needs_a_classifier(self):
        with pytest.raises(ValidationError):
            init_population(0, GAConfig(), make_rng(0))


class TestFitness:
    def test_equal_weights_match_majority_nll(self):
        inputs = random_ensemble(np.random.default_rng(0), 4, 40, 5)
        value = fitness(Chromosome(np.full(4, 0.5)), inputs, np.arange(40))
        assert value == nll(fuse_majority(inputs), inputs.label_array)

    def test_all_zero_genes_score_infinity(self):
        inputs = random_ensemble(np.random.default_rng(1), 2, 5, 3)
        assert fitness(Chromosome([0.0, 0.0]), inputs, [0, 1]) == math.inf

    def test_perfect_classifier_scores_zero(self, one_hot_pair):
        assert fitness(Chromosome([1.0, 0.0]), one_hot_pair, np.arange(4)) == 0.0

    def test_out_of_range_index(self):
        inputs = random_ensemble(np.random.default_rng(2), 2, 5, 3)
        with pytest.raises(ValidationError):
            fitness(Chromosome([0.5, 0.5]), inputs, [0, 99])

    def test_empty_indices(self):
        inputs = random_ensemble(np.random.default_rng(3), 2, 5, 3)
        with pytest.raises(EmptyInputError):
            fitness(Chromosome([0.5, 0.5]), inputs, [])

    def test_gene_count_mismatch(self):
        inputs = random_ensemble(np.random.default_rng(4), 2, 5, 3)
        with pytest.raises(DimensionError):
            fitness(Chromosome([0.5, 0.5, 0.5]), inputs, [0])


class TestDrawFitnessSample:
    def test_half_of_4000(self):
        idx = draw_fitness_sample(4000, 0.5, make_rng(0))
        assert idx.shape == (2000,)
        assert len(set(idx.tolist())) == 2000
        assert np.all(np.diff(idx) > 0)

    def test_single_sample_minimum(self):
        np.testing.assert_array_equal(draw_fitness_sample(1, 0.5, make_rng(0)), [0])

    def test_full_fraction_is_everything(self):
        np.testing.assert_array_equal(
            draw_fitness_sample(10, 1.0, make_rng(0)), np.arange(10)
        )

    def test_deterministic(self):
        np.testing.assert_array_equal(
            draw_fitness_sample(100, 0.5, make_rng(3)),
            draw_fitness_sample(100, 0.5, make_rng(3)),
        )

    def test_bad_inputs(self):
        with pytest.raises(EmptyInputError):
            draw_fitness_sample(0, 0.5, make_rng(0))
        with pytest.raises(ConfigError):
            draw_fitness_sample(10, 0.0, make_rng(0))


def _scored_population(fitness_values):
    pop = []
    for v in fitness_values:
        ch = Chromosome([0.5])
        ch.fitness = float(v)
        pop.append(ch)
    return pop


class TestSelectParents:
    def test_fifty_gives_fourteen_parents(self):
        pop = _scored_population(range(50))
        parents = select_parents(pop, GAConfig(), make_rng(0))
        assert len(parents) == 14
        assert parents[:10] == pop[:10]  # ten elites, best first
        assert all(p in pop[10:] for p in parents[10:])

    def test_elites_sorted_best_first(self):
        pop = _scored_population([5, 1, 3, 2, 4, 9, 8, 7, 6, 0])
        parents = select_parents(pop, GAConfig(elite_fraction=0.3), make_rng(0))
        assert [p.fitness for p in parents[:3]] == [0, 1, 2]

    def test_equal_fitness_ties_break_by_index(self):
        pop = _scored_population([1.0] * 50)
        parents = select_parents(pop, GAConfig(), make_rng(0))
        assert parents[:10] == pop[:10]

    def test_requires_fitness(self):
        pop = [Chromosome([0.5]), Chromosome([0.5])]
        with pytest.raises(ValidationError):
            select_parents(pop, GAConfig(elite_fraction=0.5), make_rng(0))

    def test_tiny_population_rejected(self):
        with pytest.raises(ConfigError):
            select_parents(_scored_population([1.0]), GAConfig(), make_rng(0))


class TestMutateParents:
    def test_zero_rate_is_identity(self):
        parents = [Chromosome([0.1, 0.9]), Chromosome([0.4, 0.6])]
        out = mutate_parents(parents, 0.0, make_rng(0))
        assert out[0] is parents[0] and out[1] is parents[1]

    def test_rate_one_redraws_single_gene(self):
        parents = [Chromosome([0.25]) for _ in range(20)]
        out = mutate_parents(parents, 1.0, make_rng(1))
        assert all(o is not p for o, p in zip(out, parents))
        assert all(o.fitness is None for o in out)

    def test_mutation_touches_at_most_one_gene(self):
        rng = make_rng(2)
        parents = [Chromosome(np.full(8, 0.5)) for _ in range(200)]
        out = mutate_parents(parents, 1.0, rng)
        for o in out:
            assert int((o.genes != 0.5).sum()) <= 1

    def test_monte_carlo_mutation_count(self):
        # 14 parents at rate 0.05: binomial mean 0.7 per call.
        rng = make_rng(3)
        parents = [Chromosome(np.full(8, 0.5)) for _ in range(14)]
        total = 0
        runs = 10_000
        for _ in range(runs):
            out = mutate_parents(parents, 0.05, rng)
            total += sum(o is not p for o, p in zip(out, parents))
        assert abs(total / runs - 0.7) <= 0.05

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            mutate_parents([Chromosome([0.5])], 1.5, make_rng(0))


class TestCrossoverFill:
    def test_needs_two_parents(self):
        with pytest.raises(BreedingError):
            crossover_fill([Chromosome([0.5])], 5, make_rng(0))

    def test_target_below_parent_count(self):
        parents = [Chromosome([0.1]), Chromosome([0.9])]
        with pytest.raises(ValidationError):
            crossover_fill(parents, 1, make_rng(0))

    def test_no_children_when_target_equals_parents(self):
        parents = [Chromosome([0.1]), Chromosome([0.9])]
        out = crossover_fill(parents, 2, make_rng(0))
        assert out == parents

    def test_parents_lead_unchanged(self):
        parents = [Chromosome([0.1, 0.2]), Chromosome([0.8, 0.9])]
        out = crossover_fill(parents, 6, make_rng(0))
        assert out[0] is parents[0] and out[1] is parents[1]
        assert len(out) == 6

    def test_identical_parents_breed_identical_children(self):
        parents = [Chromosome([0.3, 0.7]), Chromosome([0.3, 0.7])]
        out = crossover_fill(parents, 10, make_rng(0))
        for child in out[2:]:
            np.testing.assert_array_equal(child.genes, [0.3, 0.7])

    def test_monte_carlo_gene_mixing(self):
        # zeros x ones parents: every child gene is a Bernoulli(1/2) pick.
        parents = [Chromosome(np.zeros(8)), Chromosome(np.ones(8))]
        out = crossover_fill(parents, 10_002, make_rng(1))
        children = np.stack([ch.genes for ch in out[2:]])
        assert set(np.unique(children).tolist()) <= {0.0, 1.0}
        per_gene = children.mean(axis=0)
        assert np.all(per_gene >= 0.48) and np.all(per_gene <= 0.52)


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


class TestRunGA:
    def test_deterministic_per_seed(self):
        inputs = _two_classifier_inputs(0)
        a = run_ga(inputs, GAConfig(seed=11))
        b = run_ga(inputs, GAConfig(seed=11))
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.full_data_nll == b.full_data_nll
        assert a.generation_log == b.generation_log

    def test_thread_count_does_not_change_result(self):
        inputs = _two_classifier_inputs(1)
        a = run_ga(inputs, GAConfig(seed=5), threads=1)
        b = run_ga(inputs, GAConfig(seed=5), threads=max(2, os.cpu_count() or 2))
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.full_data_nll == b.full_data_nll
        assert a.generation_log == b.generation_log

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "x", True, None])
    def test_rejects_bad_thread_counts(self, threads):
        inputs = _two_classifier_inputs(1)
        with pytest.raises(ConfigError, match="threads"):
            run_ga(inputs, GAConfig(seed=5, generations=1), threads=threads)

    def test_log_has_one_entry_per_generation(self):
        inputs = _two_classifier_inputs(2)
        result = run_ga(inputs, GAConfig(generations=3, seed=0))
        assert [s.generation for s in result.generation_log] == [0, 1, 2]

    def test_single_classifier_reduces_to_its_nll(self):
        inputs = random_ensemble(np.random.default_rng(5), 1, 60, 4)
        result = run_ga(inputs, GAConfig(seed=9))
        expected = nll(inputs.tensor[0], inputs.label_array)
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
        config = GAConfig(seed=8)
        seen = []

        def observe(snapshot):
            best = min(
                range(len(snapshot.population)),
                key=lambda i: (snapshot.population[i].fitness, i),
            )
            seen.append(
                {
                    "generation": snapshot.generation,
                    "population_size": len(snapshot.population),
                    "next_size": len(snapshot.next_population),
                    "best_genes": snapshot.population[best].genes.copy(),
                    "next_head": snapshot.next_population[0].genes.copy(),
                    "parents": len(snapshot.parents),
                    "bounds_ok": all(
                        np.all(ch.genes >= 0.0) and np.all(ch.genes <= 1.0)
                        for ch in snapshot.next_population
                    ),
                }
            )

        run_ga(inputs, config, on_generation=observe)
        assert [s["generation"] for s in seen] == [0, 1, 2, 3, 4]
        for s in seen:
            assert s["population_size"] == 50
            assert s["next_size"] == 50
            assert s["parents"] == 14
            assert s["bounds_ok"]
            # the generation's best survives untouched at the head
            np.testing.assert_array_equal(s["best_genes"], s["next_head"])

    def test_requires_two_samples(self):
        inputs = random_ensemble(np.random.default_rng(6), 2, 1, 3)
        with pytest.raises(EmptyInputError):
            run_ga(inputs, GAConfig(seed=0))

    def test_baseline_always_in_final_selection(self, one_hot_pair):
        # Even a 1-generation run on 4 samples never loses to majority.
        result = run_ga(one_hot_pair, GAConfig(generations=1, seed=123))
        majority = nll(fuse_majority(one_hot_pair), one_hot_pair.label_array)
        assert result.full_data_nll <= majority + 1e-12

    def test_single_parent_config_cannot_breed(self, one_hot_pair):
        # population 2 with elite 0.5 selects one parent, which cannot cross over
        config = GAConfig(population_size=2, elite_fraction=0.5, seed=0)
        with pytest.raises(BreedingError):
            run_ga(one_hot_pair, config)


# run_ga results recorded before population scoring was batched: the
# weights as float hex, repr(full_data_nll), and (generation, best, mean)
# with the NLLs as float hex. Recorded with numpy 2.4 on x86-64 (AVX-512);
# a numpy build whose float64 log differs in the last bit would move them.
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
    result = run_ga(generate(spec), config)
    assert [w.hex() for w in result.weights.tolist()] == weights
    assert repr(result.full_data_nll) == full_nll
    assert [(g.generation, g.best_nll.hex(), g.mean_nll.hex()) for g in result.generation_log] == log
