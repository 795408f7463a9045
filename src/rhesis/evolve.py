"""Evolutionary tuning of scoring weights against a gold corpus.

A genome is the weight set flattened to a real vector: the five scalars in
a fixed order, then one gene per dependency label observed in the corpus
(sorted).  Fitness is ``eval``'s headline for segment_best against the gold,
by construction: ``_weighted_mean`` of one ``PerDocRow`` per ``#doc``.
The loop is a plain generational GA — elitism, tournament selection,
uniform crossover, additive Gaussian mutation — driven by one seeded
generator, so runs are fully reproducible.

Each generation's new, distinct genomes are scored in one batch, a matrix
of genome vectors: numpy runs the tree DP's recurrence
(``_dp.best_measured_cuts``) on every (genome, sentence) pair at once, and
the result equals one ``scoring._optimal_cuts`` per pair bit for bit.  A
vector is decoded to ``ScoringWeights`` only for the scalar fallback below.
The blocks are position-major, genomes on the last axis.
Each block plans its steps once, and each step of the recurrence reads a
forward window of the suffix rows, kept in reverse position order, on the
leading lanes: the sentences still running.  The equality rests on four facts.
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

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._dp import SCALE
from .corpus import AlignedCorpus
from .evaluate import PerDocRow, _matches, _rates, _weighted_mean
from .scoring import _DEPREL_RANGE, _SCALAR_RANGE, ScoringWeights, _optimal_cuts, _Structure
from .scoring import _SCALAR_FIELDS as SCALAR_ORDER
from .span import SpanConfig, _count

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
        (lo, hi), (low, high) = _SCALAR_RANGE, _DEPREL_RANGE
        scalars = [min(hi, max(lo, v)) for v in self.values[: len(SCALAR_ORDER)]]
        table = {
            label: min(high, max(low, v))
            for label, v in zip(self.labels, self.values[len(SCALAR_ORDER) :])
        }
        return ScoringWeights(**dict(zip(SCALAR_ORDER, scalars)), deprel_weights=table)


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
        for name in ("population", "generations", "tournament_k", "elitism", "seed"):
            _count(name, getattr(self, name))
        if not 0 <= self.elitism < self.population:
            raise ValueError("need population > elitism >= 0")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not (math.isfinite(self.mutation_sigma) and self.mutation_sigma > 0):
            raise ValueError("mutation_sigma must be positive and finite")
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
    ``_NONE`` if segment ``a..a + k`` is inadmissible; it indexes the balance
    terms directly.  ``offset[p, k, s, 0]`` is ``_SEG`` plus ``k << 20`` plus
    1 if the segment is a gold span.

    ``steps`` is the recurrence's plan, built once and replayed for every
    batch: per position ``p``, the row ``r = n_max - p`` where ``tallies``
    reads, ``run``, the count of sentences still running, and the views
    ``measure[p, :w, :run]`` and ``offset[p, :w, :run]``, where
    ``w = min(p + 1, width)`` counts the segment lengths that both the
    suffix and the block's width allow.
    """

    __slots__ = ("items", "n", "running", "steps", "dep", "depth", "cross", "measure", "offset")

    def __init__(self, items, label_id: dict[str, int]):
        import numpy as np
        self.items = items
        self.n = np.array([struct.n for struct, _ in items])
        n_max, lanes = int(self.n[0]), len(items)
        a = np.arange(n_max + 1)[:, None]  # every start, and every k below the width
        self.running = (self.n > a[:-1]).sum(axis=1).tolist()
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
        self.steps = [  # a slice past the width stops at it
            (p, n_max - p, run, self.measure[p, : p + 1, :run], self.offset[p, : p + 1, :run])
            for p, run in enumerate(self.running)
        ]

    def tallies(self, cut: np.ndarray, balance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per sentence and genome, the rhesis count and the gold matches of the optimal
        segmentation.

        ``cut[p, s, g]`` and ``balance[m, g]`` are genome ``g``'s integer cut
        and balance terms, ``m`` a measure; the last row of ``balance`` is
        ``_OUT``, which every ``_NONE`` clips to.  The recurrence is
        ``_dp.best_measured_cuts`` run on every (sentence, genome) lane at once.
        ``tail`` and ``state`` hold one row per suffix in reverse position
        order: row ``n_max - i`` is the suffix from ``a = n - i + 1``, so
        row ``n_max`` is the empty one.  ``tail[n_max - i]`` is the cut
        before that suffix plus its best score, and ``state[n_max - i]``
        packs the segments and gold matches of that cover.  Step ``p`` (start
        ``n - p``) reads the suffixes after its ``w`` candidate segments,
        the forward window ``r .. r + w - 1`` of its plan, and writes row
        ``r - 1``.  A candidate wins on the higher score, then on the
        smaller packed key (fewer segments, then the smaller end): one
        reduction of the keys where the score is the best, from ``_LAST``.
        """
        import numpy as np
        n_max, lanes, genomes = cut.shape
        tail = np.zeros((n_max + 1, lanes, genomes), dtype=np.int64)
        state = np.zeros_like(tail)
        for p, r, run, measure, offset in self.steps:
            window = slice(r, r + len(measure))
            scores = balance.take(measure, axis=0, mode="clip")
            scores += tail[window, :run]
            best = np.maximum.reduce(scores)
            keys = state[window, :run] + offset
            np.add(cut[p, :run], best, out=tail[r - 1, :run])
            keys = np.minimum.reduce(keys, where=scores == best, initial=_LAST)
            np.bitwise_and(keys, _KEEP, out=state[r - 1, :run])
        final = state[n_max - self.n, np.arange(lanes)]
        return final >> 40, final & (_K - 1)


class _FitnessContext:
    """Per-sentence structures, gold spans and their batched layout, built once per run.

    ``docs[i]`` numbers the document of ``items[i]`` in first-seen ``#doc`` order,
    ``doc_gold`` holds each document's gold rhesis count, and ``lanes[k]`` the
    document of each sentence of ``blocks[k]``.
    """

    __slots__ = ("items", "docs", "doc_gold", "metric", "labels", "distance", "blocks", "lanes")

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
        doc_number: dict[str, int] = {}
        self.docs = [doc_number.setdefault(entry.doc_label, len(doc_number)) for entry in corpus]
        self.doc_gold = [0] * len(doc_number)
        for doc, (_, spans) in zip(self.docs, self.items):
            self.doc_gold[doc] += len(spans)
        self.metric = metric
        self.labels = corpus_labels(corpus)
        label_id = {label: i for i, label in enumerate(self.labels)}
        ranked = sorted(range(len(self.items)), key=lambda i: -self.items[i][0].n)
        chunks = [ranked[k : k + _BLOCK] for k in range(0, len(ranked), _BLOCK)]
        self.blocks = [_Block([self.items[i] for i in chunk], label_id) for chunk in chunks]
        self.lanes = [np.array([self.docs[i] for i in chunk]) for chunk in chunks]
        # one balance row per measure up to the largest admissible one; _NONE clips past it
        top = max(int(b.measure[b.measure < _NONE].max()) for b in self.blocks)
        self.distance = np.abs(np.arange(top + 1) - span.target_chars)

    def evaluate_batch(self, batch: Sequence[ScoringWeights]) -> list[float]:
        """The fitness of each weight set, equal to one ``_optimal_cuts`` per sentence."""
        import numpy as np
        genes = np.array(
            [[getattr(w, name) for name in SCALAR_ORDER] + list(map(w.lookup, self.labels))
             for w in batch],
            dtype=float,
        )
        return self._evaluate_genes(genes)

    def _evaluate_genes(self, genes: np.ndarray) -> list[float]:
        """The fitness of each row of ``genes``, a genome vector in range (see ``_clamped``)."""
        import numpy as np
        if not len(genes):
            return []
        scalar = dict(zip(SCALAR_ORDER, genes.T))
        table = genes[:, len(SCALAR_ORDER) :].T.copy()
        balance = np.rint(-scalar["w_balance"] * self.distance[:, None] * SCALE)
        # a term below _OUT fails the guard below: the clip only keeps the cast defined
        terms = balance.clip(_OUT).astype(np.int64)
        terms = np.concatenate([terms, np.full((1, len(genes)), _OUT)])
        matched = np.zeros((len(self.doc_gold), len(genes)), dtype=np.int64)
        total = np.zeros_like(matched)
        for block, lanes in zip(self.blocks, self.lanes):
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
                count, hits = self._scalar_tallies(block, genes)
            np.add.at(total, lanes, count)
            np.add.at(matched, lanes, hits)
        return list(map(self._score, matched.T.tolist(), total.T.tolist()))

    def _scalar_tallies(self, block: _Block, genes: np.ndarray):
        """``tallies`` by one ``_optimal_cuts`` per (sentence, genome): each row decoded here."""
        import numpy as np
        batch = [_genome_from_vector(self.labels, row).decode() for row in genes]
        matched, count, _ = np.array([
            [_matches([(_spans_from_cuts(_optimal_cuts(s, w), s.n), gold)]) for w in batch]
            for s, gold in block.items
        ], dtype=np.int64).transpose(2, 0, 1)
        return count, matched

    def _score(self, matched: list[int], auto_total: list[int]) -> float:
        """The fitness of one count per document, in first-seen ``#doc`` order."""
        rows = zip(matched, auto_total, self.doc_gold)
        return _weighted_mean([PerDocRow("", g, *_rates(m, a, g, 0.0)) for m, a, g in rows],
                              self.metric)


def fitness(
    genome: Genome,
    corpus: AlignedCorpus,
    span: SpanConfig,
    metric: str = "precision",
) -> float:
    """``eval``'s weighted precision (or F1) of segment_best under this genome."""
    return _FitnessContext(corpus, span, metric).evaluate_batch([genome.decode()])[0]


def _clamped(vector: np.ndarray) -> np.ndarray:
    import numpy as np
    vector[: len(SCALAR_ORDER)] = np.clip(vector[: len(SCALAR_ORDER)], *_SCALAR_RANGE)
    vector[len(SCALAR_ORDER) :] = np.clip(vector[len(SCALAR_ORDER) :], *_DEPREL_RANGE)
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
        fresh: dict[bytes, np.ndarray] = {}
        for vec in pop:
            key = vec.tobytes()
            if key not in memo:
                fresh.setdefault(key, vec)
        memo.update(zip(fresh, context._evaluate_genes(np.array(list(fresh.values())))))
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
