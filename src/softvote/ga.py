"""Genetic search for ensemble weights.

A chromosome is one candidate weight vector: N genes in [0, 1], one per
classifier. Fitness is the mean NLL of the weighted fusion on a subsample
of the data, so lower is better. Each generation:

  1. draw one shared subsample of the data (fraction of all samples),
  2. score every chromosome on it,
  3. keep the best ``elite_fraction`` as parents plus a random
     ``extra_parent_fraction`` of the rest,
  4. mutate each parent (except the generation's best, which survives
     untouched) with probability ``mutation_rate`` by redrawing one gene,
  5. breed children by uniform crossover of random parent pairs until the
     population is full again.

After the configured number of generations the final population plus an
all-0.5 baseline chromosome are scored on ALL samples and the lowest
full-data NLL wins. The baseline is exactly equal-weight fusion, so the
search can never return anything worse than majority voting.

Randomness comes from one PCG64 stream seeded by ``GAConfig.seed``. Draws
happen in a fixed order per generation (subsample indices, parent
selection, mutation coins, crossover picks); fitness evaluation draws
nothing. Scoring needs only each classifier's probability of each sample's
true class, so ``run_ga`` gathers those once into an (N, S) matrix and
scores the whole population against it with one blocked kernel,
:func:`metrics._population_nll`, on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import metrics
from .core import EnsembleInputs, _frozen
from .errors import (
    BreedingError,
    ConfigError,
    DimensionError,
    EmptyInputError,
    ValidationError,
)
from .metrics import DEGENERATE_GENE_SUM  # noqa: F401  (kept as ga's public name)
from .rng import check_seed, make_rng


@dataclass(frozen=True)
class GAConfig:
    """Search parameters; the defaults are the reference configuration."""

    population_size: int = 50
    elite_fraction: float = 0.20
    extra_parent_fraction: float = 0.10
    mutation_rate: float = 0.05
    generations: int = 5
    fitness_sample_fraction: float = 0.50
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("population_size", "generations"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        for name in (
            "elite_fraction",
            "extra_parent_fraction",
            "fitness_sample_fraction",
            "mutation_rate",
        ):
            v = getattr(self, name)
            if not isinstance(v, Real) or isinstance(v, bool):
                raise ConfigError(f"{name} must be a real number, got {v!r}")
        for name in ("elite_fraction", "extra_parent_fraction", "fitness_sample_fraction"):
            v = float(getattr(self, name))
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v!r}")
        if not 0.0 <= float(self.mutation_rate) <= 1.0:
            raise ConfigError(f"mutation_rate must be in [0, 1], got {self.mutation_rate!r}")
        if math.floor(self.elite_fraction * self.population_size) < 1:
            raise ConfigError(
                "elite_fraction * population_size must keep at least one elite"
            )
        check_seed(self.seed)


@dataclass(eq=False)
class Chromosome:
    """Candidate weight vector with its most recent fitness, if scored."""

    genes: np.ndarray
    fitness: float | None = None

    def __post_init__(self) -> None:
        genes = np.array(self.genes, dtype=np.float64)
        if genes.ndim != 1 or genes.size == 0:
            raise DimensionError("genes must be a non-empty 1-D vector")
        if np.any(~np.isfinite(genes)) or np.any(genes < 0.0) or np.any(genes > 1.0):
            raise ValidationError("genes must lie in [0, 1]")
        self.genes = _frozen(genes)


class GenerationStats(NamedTuple):
    generation: int
    best_nll: float
    mean_nll: float


@dataclass(frozen=True, eq=False)
class GASnapshot:
    """Per-generation observation passed to ``run_ga``'s callback.

    Chromosome objects are the live ones; copy what you need inside the
    callback, since fitness fields are overwritten next generation.
    """

    generation: int
    sample_indices: np.ndarray
    population: tuple[Chromosome, ...]
    parents: tuple[Chromosome, ...]
    next_population: tuple[Chromosome, ...]


@dataclass(frozen=True, eq=False)
class GAResult:
    """Winning weights, their NLL on all samples, and the search trace."""

    weights: np.ndarray
    full_data_nll: float
    generation_log: tuple[GenerationStats, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(np.array(self.weights, dtype=np.float64)))


def init_population(
    n_classifiers: int, config: GAConfig, rng: np.random.Generator
) -> list[Chromosome]:
    """Uniform random genes, except chromosome 0 is the all-0.5 baseline."""
    if n_classifiers < 1:
        raise ValidationError("need at least one classifier")
    genes = rng.random((config.population_size, n_classifiers))
    genes[0, :] = 0.5
    return [Chromosome(row) for row in genes]


def fitness(
    chromosome: Chromosome,
    inputs: EnsembleInputs,
    sample_indices: Sequence[int] | np.ndarray,
) -> float:
    """Mean NLL of this chromosome's weighted fusion over the given samples.

    Lower is better; a degenerate all-zero chromosome scores +inf.
    """
    if chromosome.genes.shape[0] != inputs.n_classifiers:
        raise DimensionError(
            f"{chromosome.genes.shape[0]} genes for {inputs.n_classifiers} classifiers"
        )
    idx = np.asarray(sample_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise EmptyInputError("sample_indices must be a non-empty 1-D index list")
    if idx.min() < 0 or idx.max() >= inputs.num_samples:
        raise ValidationError(
            f"sample index out of range [0, {inputs.num_samples})"
        )
    true_probs = metrics._true_class_probs(inputs)[:, idx]
    return float(metrics._population_nll(chromosome.genes[None, :], true_probs)[0])


def draw_fitness_sample(
    num_samples: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """floor(fraction * S) distinct sample indices (at least 1), ascending."""
    if num_samples < 1:
        raise EmptyInputError("need at least one sample to draw from")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction!r}")
    k = max(1, math.floor(fraction * num_samples))
    return np.sort(rng.choice(num_samples, size=k, replace=False))


def select_parents(
    population: Sequence[Chromosome], config: GAConfig, rng: np.random.Generator
) -> list[Chromosome]:
    """Elites (best fitness, ties to the lower index) plus random extras.

    Returns floor(elite_fraction * P) elites, best first, followed by
    floor(extra_parent_fraction * (P - elites)) chromosomes sampled
    uniformly without replacement from the rest.
    """
    pop = list(population)
    if len(pop) < 2:
        raise ConfigError("cannot select parents from fewer than 2 chromosomes")
    if any(ch.fitness is None for ch in pop):
        raise ValidationError("every chromosome needs a fitness before selection")
    n_elite = math.floor(config.elite_fraction * len(pop))
    if n_elite < 1:
        raise ConfigError("elite_fraction keeps no chromosomes for this population size")
    order = sorted(range(len(pop)), key=lambda i: (pop[i].fitness, i))
    elite_idx = order[:n_elite]
    rest = [i for i in range(len(pop)) if i not in set(elite_idx)]
    n_extra = math.floor(config.extra_parent_fraction * len(rest))
    extras = rng.choice(len(rest), size=n_extra, replace=False) if n_extra else []
    return [pop[i] for i in elite_idx] + [pop[rest[j]] for j in extras]


def mutate_parents(
    parents: Sequence[Chromosome], rate: float, rng: np.random.Generator
) -> list[Chromosome]:
    """Each parent mutates with probability ``rate``: one gene is redrawn.

    Unselected parents pass through as the same objects. A mutated parent
    is a fresh chromosome with its cached fitness dropped.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"mutation rate must be in [0, 1], got {rate!r}")
    out: list[Chromosome] = []
    for ch in parents:
        if rng.random() < rate:
            genes = ch.genes.copy()
            genes[int(rng.integers(genes.shape[0]))] = rng.random()
            out.append(Chromosome(genes))
        else:
            out.append(ch)
    return out


def crossover_fill(
    parents: Sequence[Chromosome], target_size: int, rng: np.random.Generator
) -> list[Chromosome]:
    """Parents (unchanged, in order) plus uniform-crossover children.

    Each child draws two distinct parents uniformly at random and takes
    every gene from either one with probability 1/2.
    """
    parents = list(parents)
    if len(parents) < 2:
        raise BreedingError("crossover needs at least 2 parents")
    if target_size < len(parents):
        raise ValidationError(
            f"target_size {target_size} is smaller than the parent count {len(parents)}"
        )
    n_genes = parents[0].genes.shape[0]
    children: list[Chromosome] = []
    for _ in range(target_size - len(parents)):
        a, b = rng.choice(len(parents), size=2, replace=False)
        take_a = rng.random(n_genes) < 0.5
        children.append(Chromosome(np.where(take_a, parents[a].genes, parents[b].genes)))
    return parents + children


def _score_population(population: Sequence[Chromosome], true_probs: np.ndarray) -> list[float]:
    genes = np.stack([ch.genes for ch in population])
    values = metrics._population_nll(genes, true_probs).tolist()
    for ch, v in zip(population, values):
        ch.fitness = v
    return values


def run_ga(
    inputs: EnsembleInputs,
    config: GAConfig | None = None,
    *,
    threads: int = 1,
    on_generation: Callable[[GASnapshot], None] | None = None,
) -> GAResult:
    """Run the full weight search and return the best full-data chromosome.

    Deterministic in (inputs, config). The returned NLL never exceeds the
    majority-fusion NLL of the same inputs, because the equal-weight
    baseline competes in the final selection.

    ``threads`` must be a positive integer but has no effect on the result
    or the speed: scoring always runs on the calling thread.
    """
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    config = config or GAConfig()
    n = inputs.n_classifiers
    s = inputs.num_samples
    if s < 2:
        raise EmptyInputError("weight search needs at least 2 samples")
    rng = make_rng(config.seed)
    population = init_population(n, config, rng)
    true_probs = metrics._true_class_probs(inputs)
    log: list[GenerationStats] = []
    for gen in range(config.generations):
        idx = draw_fitness_sample(s, config.fitness_sample_fraction, rng)
        values = _score_population(population, true_probs[:, idx])
        log.append(GenerationStats(gen, float(min(values)), float(np.mean(values))))
        parents = select_parents(population, config, rng)
        # The generation's best survives untouched; the rest face mutation.
        parents = [parents[0], *mutate_parents(parents[1:], config.mutation_rate, rng)]
        next_population = crossover_fill(parents, config.population_size, rng)
        if on_generation is not None:
            on_generation(
                GASnapshot(
                    generation=gen,
                    sample_indices=idx,
                    population=tuple(population),
                    parents=tuple(parents),
                    next_population=tuple(next_population),
                )
            )
        population = next_population
    baseline = Chromosome(np.full(n, 0.5))
    candidates = population + [baseline]
    full = _score_population(candidates, true_probs)
    best = int(np.argmin(full))  # ties to the lower index; baseline is last
    return GAResult(
        weights=candidates[best].genes.copy(),
        full_data_nll=float(full[best]),
        generation_log=tuple(log),
    )
