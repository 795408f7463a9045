"""Evolutionary tuning of scoring weights against a gold corpus.

A genome is the weight set flattened to a real vector: the five scalars in
a fixed order, then one gene per dependency label observed in the corpus
(sorted).  Fitness is the common-rhesis precision (or F1) of segment_best
against the gold segmentations.  The loop is a plain generational GA —
elitism, tournament selection, uniform crossover, additive Gaussian
mutation — driven by one seeded generator, so runs are fully reproducible.

Each generation's new, distinct genomes are scored in one batch: numpy runs
``_dp.best_cuts`` on every (genome, sentence) pair at once, and the result
equals one ``scoring._optimal_cuts`` per pair bit for bit.  That rests on
four facts.  The float terms are computed in ``cut_score``'s operand order
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


class _Block:
    """Up to ``_BLOCK`` sentences laid out for the batched DP, longest first.

    Position ``p`` is the start ``a = n - p``, so every sentence begins its
    suffix recurrence at ``p = 0`` and the sentences still running at ``p``
    (those with ``n > p``) are a prefix of the block.  ``dep``, ``depth`` and
    ``cross`` hold the features of the cut before start ``a``.  The measure
    of segment ``a..a + k`` is ``values[measure[s, p, k]]``, or
    ``measure[s, p, k] == len(values)`` if the segment is inadmissible, and
    ``offset[s, p, k]`` is ``k << 20`` plus 1 if it is a gold span.
    """

    __slots__ = ("items", "n", "running", "dep", "depth", "cross", "measure", "offset")

    def __init__(self, items, label_id: dict[str, int], values: np.ndarray):
        import numpy as np
        self.items = items
        n_max = items[0][0].n
        width = max(len(row) for struct, _ in items for row in struct.measure_rows)
        dep, depth, cross, measures, gold = [], [], [], [], ([], [], [])
        out = int(values[-1]) + 1  # sorts after every value
        for s, (struct, gold_spans) in enumerate(items):
            deprels, depths, crossings = struct.cut_features
            pad = [0] * (n_max - len(deprels))
            dep.append([label_id[label] for label in reversed(deprels)] + pad)
            depth.append(depths[::-1] + pad)
            cross.append([c - 1 for c in reversed(crossings)] + pad)
            rows = struct.measure_rows[::-1] + [[]] * (n_max - struct.n)
            measures += [row + [out] * (width - len(row)) for row in rows]
            for a, b in gold_spans:  # an inadmissible one is never chosen
                if b - a < width:
                    for axis, i in zip(gold, (s, struct.n - a, b - a)):
                        axis.append(i)
        shape = (len(items), n_max, width)
        self.n = np.array([struct.n for struct, _ in items])
        self.running = [int(np.count_nonzero(self.n > p)) for p in range(n_max)]
        self.dep = np.array(dep, dtype=np.intp)
        self.depth = np.array(depth, dtype=np.float64)
        self.cross = np.array(cross, dtype=np.float64)
        self.measure = np.searchsorted(values, np.array(measures).reshape(shape))
        self.offset = np.broadcast_to(np.arange(width, dtype=np.int64) * _K, shape).copy()
        self.offset[gold] += 1

    def tallies(self, cut: np.ndarray, balance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per genome, the rhesis count and the gold matches of the optimal segmentations.

        ``cut[g, s, p]`` and ``balance[g, v]`` are genome ``g``'s integer cut
        and balance terms.  The recurrence is ``_dp.best_cuts`` run on every
        (genome, sentence) lane at once.  ``tail[..., p + 1]`` is the cut
        before ``a`` plus the best score of ``a..n``, and ``state[..., p + 1]``
        packs the segments and gold matches of that cover.  A candidate wins
        on the higher score, then on the smaller packed key (fewer segments,
        then the smaller end).
        """
        import numpy as np
        genomes, lanes, n_max = cut.shape
        tail = np.zeros((genomes, lanes, n_max + 1), dtype=np.int64)
        state = np.zeros_like(tail)
        for p, run in enumerate(self.running):
            w = min(p + 1, self.measure.shape[2])
            ends = slice(p, p - w if p >= w else None, -1)  # k = 0..w-1 reads p - k
            scores = balance[:, self.measure[:run, p, :w]] + tail[:, :run, ends]
            best = scores.max(axis=2)
            keys = np.where(
                scores == best[..., None], state[:, :run, ends] + self.offset[:run, p, :w], _LAST
            )
            tail[:, :run, p + 1] = cut[:, :run, p] + best
            state[:, :run, p + 1] = (keys.min(axis=2) & _KEEP) + _SEG
        final = state[:, np.arange(lanes), self.n]
        return (final >> 40).sum(axis=1), (final & (_K - 1)).sum(axis=1)


class _FitnessContext:
    """Per-sentence structures, gold spans and their batched layout, built once per run."""

    __slots__ = ("items", "gold_total", "metric", "labels", "distance", "blocks")

    def __init__(self, corpus: AlignedCorpus, span: SpanConfig, metric: str):
        import numpy as np
        if not corpus.entries:
            raise ValueError("empty corpus")
        self.items = [
            (_Structure(entry.sentence, span), frozenset(entry.gold.spans()))
            for entry in corpus
        ]
        self.gold_total = sum(len(spans) for _, spans in self.items)
        self.metric = metric
        structs = [struct for struct, _ in self.items]
        self.labels = sorted({label for struct in structs for label in struct.cut_features[0]})
        values = np.array(sorted(set().union(*(row for s in structs for row in s.measure_rows))))
        self.distance = np.abs(values - span.target_chars)
        label_id = {label: i for i, label in enumerate(self.labels)}
        ranked = sorted(self.items, key=lambda item: -item[0].n)
        self.blocks = [
            _Block(ranked[k : k + _BLOCK], label_id, values)
            for k in range(0, len(ranked), _BLOCK)
        ]

    def evaluate_batch(self, batch: Sequence[ScoringWeights]) -> list[float]:
        """The fitness of each weight set, equal to one ``_optimal_cuts`` per sentence."""
        import numpy as np
        if not batch:
            return []

        def scalar(name: str) -> np.ndarray:
            return np.array([getattr(w, name) for w in batch])[:, None, None]

        # the last column only pads: a corpus of one-token sentences has no labels
        table = np.array([[*map(w.lookup, self.labels), 0.0] for w in batch])
        balance = np.rint(-scalar("w_balance")[:, 0] * self.distance * SCALE)
        terms = np.column_stack([balance.astype(np.int64), np.full(len(batch), _OUT)])
        matched = np.zeros(len(batch), dtype=np.int64)
        total = np.zeros(len(batch), dtype=np.int64)
        for block in self.blocks:
            cut = np.rint(
                (
                    scalar("w_dep") * table[:, block.dep]
                    - scalar("w_depth") * block.depth
                    - scalar("w_cross") * block.cross
                    - scalar("w_count")
                )
                * SCALE
            )
            # a cover sums at most 2 * n terms, so every score stays within 2**61 of zero
            # and _OUT plus any tail stays below all of them, inside int64; the packed
            # key holds a sentence's segments and matches only below 2**20 tokens
            n_max = block.dep.shape[1]
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
        fresh: dict[bytes, ScoringWeights] = {}
        for vec in pop:
            key = vec.tobytes()
            if key not in memo and key not in fresh:
                fresh[key] = _genome_from_vector(labels, vec).decode()
        memo.update(zip(fresh, context.evaluate_batch(list(fresh.values()))))
        return [memo[vec.tobytes()] for vec in pop]

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
