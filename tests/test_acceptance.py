"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every tolerance here is part of the package contract.
"""

import functools
import math
import os
import time

import numpy as np

from softvote import (
    ClassifierProfile,
    EvaluationReport,
    GAConfig,
    GeneratorSpec,
    Manifest,
    ManifestEntry,
    PredictionSet,
    brute_force_weights,
    evaluate,
    fuse_majority,
    fuse_weighted,
    generate,
    load_manifest,
    load_predictions,
    make_rng,
    nll,
    read_manifest,
    read_report,
    read_weights,
    run_ga,
    write_ensemble,
    write_manifest,
    write_predictions,
    write_report,
    write_weights,
)

from conftest import random_ensemble


def criterion(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorator


def _synthetic_profiles(prng, n, sharp_lo, sharp_hi):
    return tuple(
        ClassifierProfile(
            f"m{i}",
            float(prng.uniform(0.55, 0.98)),
            float(prng.uniform(sharp_lo, sharp_hi)),
        )
        for i in range(n)
    )


@criterion(1, "weight search never loses to majority fusion (50/50 seeds)")
def test_never_worse_than_majority():
    start = time.perf_counter()
    wins = 0
    for seed in range(50):
        prng = make_rng(5000 + seed)
        spec = GeneratorSpec(10, 4000, _synthetic_profiles(prng, 8, 1.0, 5.0), seed=seed)
        inputs = generate(spec)
        result = run_ga(inputs, GAConfig(seed=seed))
        majority = nll(fuse_majority(inputs), inputs.label_array)
        wins += result.full_data_nll <= majority + 1e-12
    elapsed = time.perf_counter() - start
    assert wins == 50, f"only {wins}/50 runs beat or matched majority"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


@criterion(2, "two-classifier search matches the 0.01-step grid oracle (>=19/20 seeds)")
def test_matches_grid_oracle_at_n2():
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        prng = make_rng(seed)
        accuracies = prng.uniform(0.55, 0.98, 2)
        sharpness = float(prng.uniform(1.0, 4.0))  # shared: same output family
        spec = GeneratorSpec(
            10,
            2000,
            tuple(
                ClassifierProfile(f"m{i}", float(accuracies[i]), sharpness)
                for i in range(2)
            ),
            seed=seed,
        )
        inputs = generate(spec)
        result = run_ga(inputs, GAConfig(seed=seed))
        _, oracle = brute_force_weights(inputs, grid_step=0.01)
        hits += result.full_data_nll <= oracle + 0.01
    elapsed = time.perf_counter() - start
    assert hits >= 19, f"only {hits}/20 seeds within 0.01 nats of the grid optimum"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


@criterion(3, "fusion algebra holds on 1000 random ensembles")
def test_fusion_algebra_suite():
    for case in range(1000):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, 16))
        c = int(rng.integers(2, 9))
        inputs = random_ensemble(rng, n, s, c)
        weights = rng.uniform(0.01, 1.0, n)
        scale = float(rng.uniform(1e-3, 1e3))
        constant = float(rng.uniform(1e-3, 1e3))

        majority = fuse_majority(inputs)
        weighted = fuse_weighted(inputs, weights)

        # equal weights reduce to majority
        np.testing.assert_allclose(
            fuse_weighted(inputs, np.full(n, constant)), majority, atol=1e-12
        )
        # weight scale invariance
        np.testing.assert_allclose(
            fuse_weighted(inputs, scale * weights), weighted, atol=1e-12
        )
        # convexity bounds
        low = inputs.tensor.min(axis=0)
        high = inputs.tensor.max(axis=0)
        for fused in (majority, weighted):
            assert np.all(fused >= low - 1e-12) and np.all(fused <= high + 1e-12)
            # row-stochastic closure
            assert np.all(fused >= 0.0)
            np.testing.assert_allclose(fused.sum(axis=1), 1.0, atol=1e-9)


@criterion(4, "metric identities: one-hot, uniform, row sums, diagonal mean")
def test_metric_identities():
    one_hot = np.eye(10)[np.arange(10)]
    assert nll(one_hot, np.arange(10)) == 0.0

    uniform = np.full((7, 10), 0.1)
    assert abs(nll(uniform, np.zeros(7, dtype=int)) - math.log(10)) <= 1e-12

    for seed in range(50):
        rng = np.random.default_rng(seed)
        inputs = random_ensemble(rng, 3, 80, 6)
        report = evaluate(inputs, rng.uniform(0.05, 1.0, 3))
        sums = report.confusion.sum(axis=1)
        populated = sums > 0
        assert np.all(np.abs(sums[populated] - 100.0) <= 1e-6)
        counts = np.bincount(inputs.label_array, minlength=6)
        weighted_diag = float(
            (report.per_class_accuracy * counts).sum() / counts.sum()
        )
        assert abs(report.accuracy_percent - weighted_diag) <= 1e-9


@criterion(5, "search mechanics: 14 parents, stable population, elitism, threads")
def test_search_mechanics():
    spec = GeneratorSpec(
        10,
        600,
        (
            ClassifierProfile("a", 0.9, 3.0),
            ClassifierProfile("b", 0.7, 2.0),
            ClassifierProfile("c", 0.6, 1.5),
        ),
        seed=2,
    )
    inputs = generate(spec)
    observed = []
    single_log = []

    def observe(snapshot):
        single_log.append((snapshot.generation, snapshot.fitness.tobytes()))
        genes, rows, mutated = snapshot.genes, snapshot.parent_rows, snapshot.mutated
        ranked = np.argsort(snapshot.fitness, kind="stable")
        extras = set(rows[10:].tolist())
        kept = ~mutated
        observed.append(
            (
                genes.shape[0],
                snapshot.next_genes.shape[0],
                rows.shape[0],
                # 10 elites, best first, and the best is never mutated
                rows[:10].tolist() == ranked[:10].tolist() and not mutated[0],
                # 4 extras: distinct non-elites
                len(extras) == rows.shape[0] - 10 and not extras & set(ranked[:10].tolist()),
                # an unmutated parent is copied unchanged from its population row
                bool(np.array_equal(snapshot.next_genes[: rows.shape[0]][kept], genes[rows[kept]])),
                bool(np.all(snapshot.next_genes >= 0.0) and np.all(snapshot.next_genes <= 1.0)),
                bool(np.array_equal(genes[ranked[0]], snapshot.next_genes[0])),
            )
        )

    config = GAConfig(seed=10)
    single = run_ga(inputs, config, threads=1, on_generation=observe)
    assert len(observed) == config.generations
    for size, next_size, n_parents, elites_ok, extras_ok, parents_kept, in_bounds, elite_survives in observed:
        assert size == 50 and next_size == 50
        assert n_parents == 14
        assert elites_ok and extras_ok
        assert parents_kept
        assert in_bounds
        assert elite_survives

    threaded_log = []
    threaded = run_ga(
        inputs,
        config,
        threads=max(2, os.cpu_count() or 2),
        on_generation=lambda snapshot: threaded_log.append((snapshot.generation, snapshot.fitness.tobytes())),
    )
    assert single.weights.tobytes() == threaded.weights.tobytes()
    assert single.full_data_nll == threaded.full_data_nll
    assert single_log == threaded_log


@criterion(6, "default search on an 8-classifier manifest: 5 generations, 8 genes")
def test_default_shape(tmp_path):
    prng = make_rng(60)
    spec = GeneratorSpec(10, 400, _synthetic_profiles(prng, 8, 1.0, 4.0), seed=6)
    manifest_path = write_ensemble(generate(spec), tmp_path / "bundle")
    inputs = load_manifest(manifest_path)
    snapshots = []
    result = run_ga(inputs, GAConfig(seed=0), on_generation=snapshots.append)
    assert [s.generation for s in snapshots] == [0, 1, 2, 3, 4]
    assert result.weights.shape == (8,)


@criterion(7, "all four file formats round-trip byte-identically (100 each)")
def test_format_round_trips(tmp_path):
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))

    def random_word(rng):
        return "".join(rng.choice(letters, size=int(rng.integers(3, 10))))

    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        c = int(rng.integers(2, 9))
        s = int(rng.integers(1, 20))

        predictions = PredictionSet(
            random_word(rng),
            tuple(f"s{i}" for i in range(s)),
            rng.dirichlet(np.ones(c), size=s),
        )
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_predictions(predictions, p1)
        write_predictions(load_predictions(p1, c), p2)
        assert p1.read_bytes() == p2.read_bytes()

        n = int(rng.integers(1, 9))
        names = [f"{random_word(rng)}{i}" for i in range(n)]
        manifest = Manifest(
            num_classes=c,
            class_names=tuple(random_word(rng) for _ in range(c)),
            classifiers=tuple(ManifestEntry(nm, f"{nm}.csv") for nm in names),
            labels_path="labels.csv",
        )
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(manifest, m1)
        write_manifest(read_manifest(m1), m2)
        assert m1.read_bytes() == m2.read_bytes()

        w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
        write_weights(rng.uniform(0.0, 1.0, n), float(rng.uniform(0.0, 3.0)), w1)
        write_weights(*read_weights(w1), w2)
        assert w1.read_bytes() == w2.read_bytes()

        counts = rng.integers(0, 20, size=(c, c))
        totals = counts.sum(axis=1)
        confusion = np.zeros((c, c))
        populated = totals > 0
        confusion[populated] = 100.0 * counts[populated] / totals[populated, None]
        total = counts.sum()
        report = EvaluationReport(
            nll=float(rng.uniform(0.0, 3.0)),
            accuracy_percent=float(100.0 * np.trace(counts) / total) if total else 0.0,
            confusion=confusion,
            per_class_accuracy=np.diagonal(confusion).copy(),
            classifier_names=tuple(names),
            sample_count=int(total),
        )
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(report, r1, format="json")
        write_report(read_report(r1), r2, format="json")
        assert r1.read_bytes() == r2.read_bytes()


@criterion(8, "default search over 8 x 4000 x 10 finishes within 5 seconds")
def test_performance_envelope():
    prng = make_rng(80)
    spec = GeneratorSpec(10, 4000, _synthetic_profiles(prng, 8, 1.0, 4.0), seed=8)
    inputs = generate(spec)
    inputs.tensor  # build the stacked array before the clock starts
    start = time.perf_counter()
    result = run_ga(inputs, GAConfig(seed=0))
    elapsed = time.perf_counter() - start
    assert result.weights.shape == (8,)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
