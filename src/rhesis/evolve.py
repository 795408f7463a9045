"""Evolutionary tuning of scoring weights against a gold corpus.

A genome is the weight set flattened to a real vector: the five scalars in
a fixed order, then one gene per dependency label observed in the corpus
(sorted).  Fitness is the common-rhesis precision (or F1) of segment_best
against the gold segmentations.  The loop is a plain generational GA —
elitism, tournament selection, uniform crossover, additive Gaussian
mutation — driven by one seeded generator, so runs are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AlignedCorpus
from .evaluate import _f1
from .scoring import _SCALAR_FIELDS as SCALAR_ORDER, ScoringWeights, _optimal_cuts, _Structure
from .span import SpanConfig

__all__ = ["Genome", "EvoConfig", "corpus_labels", "fitness", "evolve"]


@dataclass(frozen=True, slots=True)
class Genome:
    """Flattened weight vector: 5 scalars, then one gene per label."""

    labels: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(SCALAR_ORDER) + len(self.labels):
            raise ValueError(
                f"genome needs {len(SCALAR_ORDER) + len(self.labels)} genes, "
                f"got {len(self.values)}"
            )

    def decode(self) -> ScoringWeights:
        """The ScoringWeights this genome encodes, with ranges clamped."""
        scalars = [max(0.0, v) for v in self.values[: len(SCALAR_ORDER)]]
        table = {
            label: min(1.0, max(-1.0, v))
            for label, v in zip(self.labels, self.values[len(SCALAR_ORDER) :])
        }
        return ScoringWeights(
            **dict(zip(SCALAR_ORDER, scalars)),
            deprel_weights=table,
            default_deprel_weight=0.0,
        )


@dataclass(frozen=True, slots=True)
class EvoConfig:
    population: int = 40
    generations: int = 60
    tournament_k: int = 3
    crossover_rate: float = 0.7
    mutation_sigma: float = 0.1
    mutation_rate: float = 0.2
    elitism: int = 2
    seed: int = 0
    fitness_metric: str = "precision"

    def __post_init__(self) -> None:
        if not 0 <= self.elitism < self.population:
            raise ValueError("need population > elitism >= 0")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.mutation_sigma <= 0:
            raise ValueError("mutation_sigma must be positive")
        if self.fitness_metric not in ("precision", "f1"):
            raise ValueError("fitness_metric must be 'precision' or 'f1'")


def corpus_labels(corpus: AlignedCorpus) -> tuple[str, ...]:
    """Sorted dependency labels observed anywhere in the corpus."""
    labels = {tok.deprel for entry in corpus for tok in entry.sentence.tokens}
    return tuple(sorted(labels))


def _spans_from_cuts(cuts: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    bounds = (0, *cuts, n)
    return frozenset((a + 1, b) for a, b in zip(bounds, bounds[1:]))


class _FitnessContext:
    """Per-sentence structures and gold spans, computed once per run."""

    __slots__ = ("items", "gold_total", "metric")

    def __init__(self, corpus: AlignedCorpus, span: SpanConfig, metric: str):
        if not corpus.entries:
            raise ValueError("empty corpus")
        self.items = [
            (_Structure(entry.sentence, span), frozenset(entry.gold.spans()))
            for entry in corpus
        ]
        self.gold_total = sum(len(spans) for _, spans in self.items)
        self.metric = metric

    def evaluate(self, weights: ScoringWeights) -> float:
        matched = 0
        auto_total = 0
        for struct, gold_spans in self.items:
            cuts = _optimal_cuts(struct, weights)
            auto_spans = _spans_from_cuts(cuts, struct.n)
            matched += len(auto_spans & gold_spans)
            auto_total += len(auto_spans)
        precision = matched / auto_total if auto_total else 0.0
        if self.metric == "precision":
            return precision
        recall = matched / self.gold_total if self.gold_total else 0.0
        return _f1(precision, recall)


def fitness(
    genome: Genome,
    corpus: AlignedCorpus,
    span: SpanConfig,
    metric: str = "precision",
) -> float:
    """Corpus-level precision (or F1) of segment_best under this genome."""
    return _FitnessContext(corpus, span, metric).evaluate(genome.decode())


def _clamped(vector: np.ndarray) -> np.ndarray:
    vector[: len(SCALAR_ORDER)] = np.maximum(vector[: len(SCALAR_ORDER)], 0.0)
    vector[len(SCALAR_ORDER) :] = np.clip(vector[len(SCALAR_ORDER) :], -1.0, 1.0)
    return vector


def _tournament(rng: np.random.Generator, fits: list[float], k: int) -> int:
    contenders = rng.integers(0, len(fits), size=k)
    best = int(contenders[0])
    for idx in contenders[1:]:
        if fits[int(idx)] > fits[best]:
            best = int(idx)
    return best


def _genome_from_vector(labels: tuple[str, ...], vector: np.ndarray) -> Genome:
    return Genome(labels=labels, values=tuple(float(v) for v in vector))


def evolve(
    corpus: AlignedCorpus, cfg: EvoConfig, span: SpanConfig
) -> tuple[Genome, list[float]]:
    """Run the GA and return the best-ever genome plus its fitness trace.

    The trace holds the best fitness seen so far after the initial
    evaluation and after each generation (length ``generations + 1``), so it
    is non-decreasing by construction.  Everything is driven by one
    ``numpy.random.default_rng(cfg.seed)``; a repeated run reproduces the
    genome and trace exactly.
    """
    context = _FitnessContext(corpus, span, cfg.fitness_metric)
    labels = corpus_labels(corpus)
    dim = len(SCALAR_ORDER) + len(labels)
    rng = np.random.default_rng(cfg.seed)

    seeded = [np.zeros(dim)]
    dep_dominant = np.zeros(dim)
    dep_dominant[0] = 1.0  # w_dep leads SCALAR_ORDER
    seeded.append(dep_dominant)
    population = seeded[: cfg.population]
    while len(population) < cfg.population:
        scalars = rng.uniform(0.0, 1.0, len(SCALAR_ORDER))
        table = rng.uniform(-1.0, 1.0, len(labels))
        population.append(np.concatenate([scalars, table]))

    # Elites and unmutated copies recur across generations: equal genes, equal fitness.
    memo: dict[bytes, float] = {}

    def evaluate_all(pop: list[np.ndarray]) -> list[float]:
        fits = []
        for vec in pop:
            key = vec.tobytes()
            if key not in memo:
                memo[key] = context.evaluate(_genome_from_vector(labels, vec).decode())
            fits.append(memo[key])
        return fits

    fits = evaluate_all(population)
    best_fit = fits[0]
    best_vec = population[0].copy()
    for vec, fit in zip(population, fits):
        if fit > best_fit:
            best_fit, best_vec = fit, vec.copy()
    trace = [best_fit]

    for _ in range(cfg.generations):
        ranked = sorted(range(len(population)), key=lambda i: (-fits[i], i))
        next_pop = [population[i].copy() for i in ranked[: cfg.elitism]]
        while len(next_pop) < cfg.population:
            a = _tournament(rng, fits, cfg.tournament_k)
            b = _tournament(rng, fits, cfg.tournament_k)
            if rng.random() < cfg.crossover_rate:
                mask = rng.random(dim) < 0.5
                child = np.where(mask, population[a], population[b])
            else:
                child = population[a].copy()
            mutate = rng.random(dim) < cfg.mutation_rate
            child = child + rng.normal(0.0, cfg.mutation_sigma, dim) * mutate
            next_pop.append(_clamped(child))
        population = next_pop
        fits = evaluate_all(population)
        for vec, fit in zip(population, fits):
            if fit > best_fit:
                best_fit, best_vec = fit, vec.copy()
        trace.append(best_fit)

    return _genome_from_vector(labels, best_vec), trace
