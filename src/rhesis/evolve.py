"""Evolutionary tuning of scoring weights against a gold corpus.

A genome is the weight set flattened to a real vector: the five scalars in
a fixed order, then one gene per dependency label observed in the corpus
(sorted).  Fitness is the common-rhesis precision (or F1) of segment_best
against the gold segmentations.  The loop is a plain generational GA —
elitism, tournament selection, uniform crossover, additive Gaussian
mutation — driven by one seeded generator, so runs are fully reproducible.

Each generation's new, distinct genomes are scored in one batch: numpy runs
``_dp.best_cuts`` on every (genome, sentence) pair at once, and the result
equals one ``scoring._optimal_cuts`` per pair bit for bit.  The blocks are
position-major, genomes on the last axis, so each step of the recurrence
reads one leading slice of every array.  The equality rests on four facts.
The float terms are computed in ``cut_score``'s operand order
(``w_dep * weight - w_depth * depth - w_cross * crossings - w_count``) and
the balance term's (``-w_balance * |measure - target|``), so each is the same
IEEE double.  ``np.rint`` rounds half to even, as ``round`` does, so each
lands on the same point of the integer grid.  The sums are int64, and a
guard sends any block whose largest term times ``4 * n`` reaches ``2**62``
to the scalar DP instead, so no sum can overflow.  And each step keeps the
scalar tie rule: the highest score, then the fewest segments, then the
smallest end.

numpy is imported inside the functions that use it, not at the top of the
module.  ``config`` and the package import ``EvoConfig`` from here, so a
module-level import would load numpy for every command; only tuning needs it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._dp import SCALE
from .corpus import AlignedCorpus
from .evaluate import _f1
from .scoring import _SCALAR_FIELDS as SCALAR_ORDER, ScoringWeights, _optimal_cuts, _Structure
from .span import SpanConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Genome", "EvoConfig", "corpus_labels", "fitness", "evolve"]

_METRICS = ("precision", "f1")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.fitness_metric not in _METRICS:
            raise ValueError(f"fitness_metric must be in {_METRICS}, got {self.fitness_metric!r}")


def corpus_labels(corpus: AlignedCorpus) -> tuple[str, ...]:
    """Sorted dependency labels observed anywhere in the corpus."""
    labels = {deprel for entry in corpus for deprel in entry.sentence.deprels}
    return tuple(sorted(labels))


def _spans_from_cuts(cuts: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    bounds = (0, *cuts, n)
    return frozenset((a + 1, b) for a, b in zip(bounds, bounds[1:]))


# Sentences per block of the batched DP: the block's arrays, not the corpus, set its memory.
_BLOCK = 64
# The batched DP packs a cover's tallies into one int64: segments << 40 | gold matches,
# with bits 20..39 free to carry the length of the first segment through the tie-break.
_K = 1 << 20
_SEG = 1 << 40
_KEEP = ~((_SEG - 1) ^ (_K - 1))
_LAST = (1 << 63) - 1  # the key of a segment that is not among the best
# The balance term of an inadmissible segment: below any score the int64 guard admits.
_OUT = -(1 << 62)
_NONE = (1 << 63) - 1  # the measure of an inadmissible segment, above every other


class _Block:
    """Up to ``_BLOCK`` sentences laid out for the batched DP, longest first.

    Position ``p`` is the start ``a = n - p``, so every sentence begins its
    suffix recurrence at ``p = 0`` and the sentences still running at ``p``
    (those with ``n > p``) are a prefix of the block.  ``dep[p, s]``,
    ``depth[p, s]`` and ``cross[p, s]`` hold the features of the cut before
    start ``a``.  ``measure[p, k, s]`` is built as ``hi[a + k] - lo[a]``, or
    ``_NONE`` if segment ``a..a + k`` is inadmissible, and the context ranks
    it among the corpus's measures.  ``offset[p, k, s, 0]`` is ``_SEG`` plus
    ``k << 20`` plus 1 if the segment is a gold span.
    """

    __slots__ = ("items", "n", "running", "dep", "depth", "cross", "measure", "offset")

    def __init__(self, items, label_id: dict[str, int]):
        import numpy as np
        self.items = items
        self.n = np.array([struct.n for struct, _ in items])
        n_max, lanes = int(self.n[0]), len(items)
        self.running = [int(np.count_nonzero(self.n > p)) for p in range(n_max)]
        self.dep = np.zeros((n_max, lanes), dtype=np.intp)
        self.depth, self.cross = np.zeros((2, n_max, lanes))
        hi, lo, last = np.zeros((3, n_max + 1, lanes), dtype=np.int64)
        gold = []
        for s, (struct, gold_spans) in enumerate(items):
            cuts, starts = slice(struct.n - 1), slice(struct.n + 1)
            deprels, depths, crossings = struct.cut_features
            self.dep[cuts, s] = [label_id[label] for label in reversed(deprels)]
            self.depth[cuts, s] = depths[::-1]
            self.cross[cuts, s] = [c - 1 for c in reversed(crossings)]
            hi[starts, s], lo[starts, s], last[starts, s] = struct.hi, struct.lo, struct.fit_end
            gold += [(struct.n - a, b - a, s) for a, b in gold_spans]
        a = np.arange(n_max + 1)[:, None]  # every start, and every k below the width
        np.maximum(last, a, out=last)  # an oversized token stands alone
        width = int((last - a).max()) + 1
        starts = (self.n - a[:-1]).clip(0)  # starts[p, s]; 0 once sentence s has ended
        ends = starts[:, None] + a[:width]
        admissible = (ends <= np.take_along_axis(last, starts, 0)[:, None]) & (starts > 0)[:, None]
        ends = np.take_along_axis(hi, np.minimum(ends, n_max).reshape(-1, lanes), 0)
        measure = ends.reshape(admissible.shape) - np.take_along_axis(lo, starts, 0)[:, None]
        self.measure = np.where(admissible, measure, _NONE)
        self.offset = np.broadcast_to(a[:width, None] * _K + _SEG, (*admissible.shape, 1)).copy()
        gold = np.array(gold, dtype=np.intp).reshape(-1, 3)
        self.offset[tuple(gold[gold[:, 1] < width].T)] += 1  # an inadmissible one is never chosen

    def tallies(self, cut: np.ndarray, balance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per genome, the rhesis count and the gold matches of the optimal segmentations.

        ``cut[p, s, g]`` and ``balance[v, g]`` are genome ``g``'s integer cut
        and balance terms.  The recurrence is ``_dp.best_cuts`` run on every
        (sentence, genome) lane at once.  ``tail[p + 1]`` is the cut before
        ``a`` plus the best score of ``a..n``, and ``state[p + 1]`` packs the
        segments and gold matches of that cover.  A candidate wins on the
        higher score, then on the smaller packed key (fewer segments, then
        the smaller end).
        """
        import numpy as np
        n_max, lanes, genomes = cut.shape
        tail = np.zeros((n_max + 1, lanes, genomes), dtype=np.int64)
        state = np.zeros_like(tail)
        for p, run in enumerate(self.running):
            w = min(p + 1, self.measure.shape[1])
            ends = slice(p, p - w if p >= w else None, -1)  # k = 0..w-1 reads p - k
            scores = balance.take(self.measure[p, :w, :run], axis=0)
            scores += tail[ends, :run]
            best = np.maximum.reduce(scores)
            keys = state[ends, :run] + self.offset[p, :w, :run]
            keys[scores != best] = _LAST
            np.add(cut[p, :run], best, out=tail[p + 1, :run])
            np.bitwise_and(np.minimum.reduce(keys), _KEEP, out=state[p + 1, :run])
        final = state[self.n, np.arange(lanes)]
        return (final >> 40).sum(axis=0), (final & (_K - 1)).sum(axis=0)


class _FitnessContext:
    """Per-sentence structures, gold spans and their batched layout, built once per run."""

    __slots__ = ("items", "gold_total", "metric", "labels", "distance", "blocks")

    def __init__(self, corpus: AlignedCorpus, span: SpanConfig, metric: str):
        import numpy as np
        if not corpus.entries:
            raise ValueError("empty corpus")
        if metric not in _METRICS:
            raise ValueError(f"fitness_metric must be in {_METRICS}, got {metric!r}")
        self.items = [
            (_Structure(entry.sentence, span), frozenset(entry.gold.spans()))
            for entry in corpus
        ]
        self.gold_total = sum(len(spans) for _, spans in self.items)
        self.metric = metric
        self.labels = corpus_labels(corpus)
        label_id = {label: i for i, label in enumerate(self.labels)}
        ranked = sorted(self.items, key=lambda item: -item[0].n)
        self.blocks = [
            _Block(ranked[k : k + _BLOCK], label_id) for k in range(0, len(ranked), _BLOCK)
        ]
        # the distinct admissible measures, sorted; np.unique would load numpy.ma
        values = np.sort(np.concatenate([b.measure[b.measure < _NONE] for b in self.blocks]))
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        self.distance = np.abs(values - span.target_chars)
        for block in self.blocks:  # _NONE ranks after every value
            block.measure = np.searchsorted(values, block.measure)

    def evaluate_batch(self, batch: Sequence[ScoringWeights]) -> list[float]:
        """The fitness of each weight set, equal to one ``_optimal_cuts`` per sentence."""
        import numpy as np
        if not batch:
            return []

        scalar = {name: np.array([getattr(w, name) for w in batch]) for name in SCALAR_ORDER}
        table = np.array([list(map(w.lookup, self.labels)) for w in batch]).T.copy()
        balance = np.rint(-scalar["w_balance"] * self.distance[:, None] * SCALE)
        terms = np.concatenate([balance.astype(np.int64), np.full((1, len(batch)), _OUT)])
        matched = np.zeros(len(batch), dtype=np.int64)
        total = np.zeros(len(batch), dtype=np.int64)
        for block in self.blocks:
            cut = np.rint(
                (
                    scalar["w_dep"] * table[block.dep]
                    - scalar["w_depth"] * block.depth[..., None]
                    - scalar["w_cross"] * block.cross[..., None]
                    - scalar["w_count"]
                )
                * SCALE
            )
            # a cover sums at most 2 * n terms, so every score stays within 2**61 of zero
            # and _OUT plus any tail stays below all of them, inside int64; the packed
            # key holds a sentence's segments and matches only below 2**20 tokens
            n_max = block.dep.shape[0]
            if max(np.abs(cut).max(), np.abs(balance).max()) * 4 * n_max < 2.0**62 and n_max < _K:
                count, hits = block.tallies(cut.astype(np.int64), terms)
            else:
                count, hits = self._scalar_tallies(block, batch)
            total += count
            matched += hits
        return [self._score(int(m), int(t)) for m, t in zip(matched, total)]

    @staticmethod
    def _scalar_tallies(block: _Block, batch: Sequence[ScoringWeights]):
        import numpy as np
        count = np.zeros(len(batch), dtype=np.int64)
        matched = np.zeros(len(batch), dtype=np.int64)
        for g, weights in enumerate(batch):
            for struct, gold_spans in block.items:
                auto_spans = _spans_from_cuts(_optimal_cuts(struct, weights), struct.n)
                count[g] += len(auto_spans)
                matched[g] += len(auto_spans & gold_spans)
        return count, matched

    def _score(self, matched: int, auto_total: int) -> float:
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
    return _FitnessContext(corpus, span, metric).evaluate_batch([genome.decode()])[0]


def _clamped(vector: np.ndarray) -> np.ndarray:
    import numpy as np
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
    import numpy as np
    context = _FitnessContext(corpus, span, cfg.fitness_metric)
    labels = context.labels
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
        fresh: dict[bytes, ScoringWeights] = {}
        for vec in pop:
            key = vec.tobytes()
            if key not in memo and key not in fresh:
                fresh[key] = _genome_from_vector(labels, vec).decode()
        memo.update(zip(fresh, context.evaluate_batch(list(fresh.values()))))
        return [memo[vec.tobytes()] for vec in pop]

    best_fit, best_vec, trace = float("-inf"), population[0], []
    for generation in range(cfg.generations + 1):
        if generation:  # generation 0 is the initial population
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
