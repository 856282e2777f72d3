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

Randomness comes from one PCG64 stream seeded by ``GAConfig.seed``. The
initial population is one ``random((P, N))`` draw (row 0 is then set to
0.5). Each generation then draws, in this order:

  * subsample: one ``choice(S, k, replace=False)``;
  * selection: one ``choice(P - elites, extras, replace=False)`` picking
    the extra parents among the non-elites, skipped when ``extras`` is 0;
  * mutation: for each parent after the best, in parent order, one coin
    ``random()``; a parent whose coin is below the rate then draws the new
    gene value ``random()`` and after it the gene index ``integers(N)``;
  * crossover: for each child, in order, ``choice(parents, 2,
    replace=False)`` for its parents a and b, then ``random(N)``; gene j
    comes from a where that draw is below 1/2, else from b.

Fitness evaluation draws nothing. Scoring needs only each classifier's
probability of each sample's true class, so ``run_ga`` gathers those once
into an (N, S) matrix and scores the whole population against it with one
blocked kernel, :func:`metrics._population_nll`, on the calling thread.

``run_ga`` holds the population as one (P, N) float64 gene array and
breeds each next generation in it: the parents go to its first K rows
and are mutated there, and the children fill the rows after them. An
``on_generation`` callback sees each generation as a :class:`GASnapshot`
of read-only copies: the scored population is ``genes`` with its
``fitness``, parent k is row ``parent_rows[k]`` of it, and ``next_genes``
holds the K parents, mutated where ``mutated`` says so, then the children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics
from .core import EnsembleInputs, _frozen
from .errors import ConfigError, EmptyInputError, _integer, _real
from .rng import check_seed, make_rng

# Upper limits on the search's counts. A run holds a (population_size, N)
# gene array and breeds ``generations`` times, so a larger count is a
# ConfigError, not a failed allocation or a search that does not end.
MAX_POPULATION_SIZE = 100_000
MAX_GENERATIONS = 100_000


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
        for name, low, high in (("population_size", 2, MAX_POPULATION_SIZE), ("generations", 1, MAX_GENERATIONS)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError, low, high))
        fractions = ("elite_fraction", "(]"), ("extra_parent_fraction", "(]"), ("fitness_sample_fraction", "(]")
        for name, ends in (*fractions, ("mutation_rate", "[]")):
            object.__setattr__(self, name, float(_real(getattr(self, name), name, ConfigError, 0, 1, ends)))
        if math.floor(self.elite_fraction * self.population_size) < 1:
            raise ConfigError(
                "elite_fraction * population_size must keep at least one elite"
            )
        if sum(_parent_counts(self, self.population_size)) < 2:
            raise ConfigError(
                f"population_size {self.population_size} with elite_fraction {self.elite_fraction} and "
                f"extra_parent_fraction {self.extra_parent_fraction} selects 1 parent; crossover needs at least 2"
            )
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True, eq=False)
class GASnapshot:
    """Per-generation observation passed to ``run_ga``'s callback.

    With P chromosomes, N classifiers and K parents:

    * ``genes`` (P, N) and ``fitness`` (P,): the population, scored on
      the samples ``sample_indices``;
    * ``parent_rows`` (K,): the parents' rows of ``genes``, the elites
      best first, then the extras;
    * ``mutated`` (K,) bool: which parents had a gene redrawn; never the
      first, the generation's best;
    * ``next_genes`` (P, N): the next population, the parents in order
      then the children. An unmutated parent k is
      ``genes[parent_rows[k]]``; the children are ``next_genes[K:]``.

    The arrays are made read-only, and the search keeps none of them, so
    nothing an observer does reaches the search.
    """

    generation: int
    sample_indices: np.ndarray
    genes: np.ndarray
    fitness: np.ndarray
    parent_rows: np.ndarray
    mutated: np.ndarray
    next_genes: np.ndarray

    def __post_init__(self) -> None:
        arrays = (self.sample_indices, self.genes, self.fitness, self.parent_rows, self.mutated, self.next_genes)
        for array in arrays:
            _frozen(array)


@dataclass(frozen=True, eq=False)
class GAResult:
    """Winning weights and their NLL on all samples."""

    weights: np.ndarray
    full_data_nll: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(np.array(self.weights, dtype=np.float64)))


def _initial_genes(n_classifiers: int, config: GAConfig, rng: np.random.Generator) -> np.ndarray:
    genes = rng.random((config.population_size, n_classifiers))
    genes[0, :] = 0.5
    return genes


def _draw_fitness_sample(num_samples: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """floor(fraction * S) distinct sample indices (at least 1), ascending.

    ``run_ga`` refuses S < 2 and ``GAConfig`` keeps ``fraction`` in (0, 1].
    """
    k = max(1, math.floor(fraction * num_samples))
    return np.sort(rng.choice(num_samples, size=k, replace=False))


def _parent_counts(config: GAConfig, n_rows: int) -> tuple[int, int]:
    """How many elites and extra parents selection keeps from ``n_rows`` chromosomes."""
    n_elite = math.floor(config.elite_fraction * n_rows)
    return n_elite, math.floor(config.extra_parent_fraction * (n_rows - n_elite))


def _parent_rows(fitness_values: np.ndarray, config: GAConfig, rng: np.random.Generator) -> np.ndarray:
    """Row indices of the parents: elites best first, then the extras."""
    n_elite, n_extra = _parent_counts(config, fitness_values.shape[0])
    order = np.argsort(fitness_values, kind="stable")
    elite = order[:n_elite]
    if not n_extra:
        return elite
    rest_rows = np.sort(order[n_elite:])
    extras = rest_rows[rng.choice(rest_rows.size, size=n_extra, replace=False)]
    return np.concatenate((elite, extras))


def _mutate_rows(rows: np.ndarray, rate: float, rng: np.random.Generator) -> list[bool]:
    """Redraw one gene of each row, in place, with probability ``rate``.

    Returns which rows were mutated.
    """
    mutated = []
    for row in rows:
        hit = rng.random() < rate
        if hit:
            value = rng.random()
            row[int(rng.integers(row.shape[0]))] = value
        mutated.append(hit)
    return mutated


def _breed(genes: np.ndarray, n_parents: int, rng: np.random.Generator) -> None:
    """Fill rows ``n_parents:`` of ``genes`` with crossovers of the rows before."""
    n_genes = genes.shape[1]
    for k in range(n_parents, genes.shape[0]):
        a, b = rng.choice(n_parents, size=2, replace=False)
        take_a = rng.random(n_genes) < 0.5
        genes[k] = np.where(take_a, genes[a], genes[b])


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
    positive = "{name} must be a positive integer, got {value}"
    _integer(threads, "threads", ConfigError, 1, message=positive, one_message=True)
    config = config or GAConfig()
    n = inputs.n_classifiers
    s = inputs.num_samples
    if s < 2:
        raise EmptyInputError("weight search needs at least 2 samples")
    rng = make_rng(config.seed)
    genes = _initial_genes(n, config, rng)
    true_probs = metrics._true_class_probs(inputs)
    for gen in range(config.generations):
        idx = _draw_fitness_sample(s, config.fitness_sample_fraction, rng)
        values = metrics._population_nll(genes, true_probs[:, idx])
        rows = _parent_rows(values, config, rng)
        scored = None if on_generation is None else genes.copy()  # genes is bred over below
        n_parents = rows.shape[0]
        genes[:n_parents] = genes[rows]
        # The generation's best survives untouched; the rest face mutation.
        mutated = [False, *_mutate_rows(genes[1:n_parents], config.mutation_rate, rng)]
        _breed(genes, n_parents, rng)
        if on_generation is not None:
            on_generation(GASnapshot(gen, idx, scored, values, rows, np.array(mutated), genes.copy()))
    candidates = np.vstack((genes, np.full(n, 0.5)))
    full = metrics._population_nll(candidates, true_probs)
    best = int(np.argmin(full))  # ties to the lower index; baseline is last
    return GAResult(weights=candidates[best], full_data_nll=float(full[best]))
