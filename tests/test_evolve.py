"""Tests for the evolutionary weight tuner."""

import hashlib
import json
import math
import random
from importlib import resources

import pytest

from rhesis import (
    AlignedCorpus,
    EvoConfig,
    Genome,
    ScoringWeights,
    SpanConfig,
    align_gold,
    corpus_labels,
    document_report,
    evolve,
    fitness,
    parse_conllu,
    parse_gold,
    segment_best,
    weights_to_json,
)
from rhesis.evaluate import _weighted_mean
from rhesis.evolve import SCALAR_ORDER

from helpers import corpus_from_golds, random_sentences, relabelled_fixture_gold

SPAN = SpanConfig(max_chars=30, target_chars=18)

TEACHER = ScoringWeights(
    w_dep=1.0,
    w_count=0.125,
    w_balance=0.05,
    deprel_weights={"conj": 0.9, "advcl": 0.8, "parataxis": 0.7, "obl": 0.4,
                    "det": -0.8, "case": -0.8, "amod": -0.6, "aux": -0.7},
)


def _teacher_corpus(seed: int, count: int):
    rng = random.Random(seed)
    sentences = random_sentences(rng, count, 4, 12)
    golds = [segment_best(s, TEACHER, SPAN) for s in sentences]
    return corpus_from_golds(sentences, golds)


class TestGenome:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            Genome(labels=("conj",), values=(1.0, 2.0))

    def test_decode_clamps_into_valid_ranges(self):
        genome = Genome(
            labels=("conj", "det"),
            values=(-0.5, 2.0, 0.3, 0.0, 0.1, 1.7, -1.9),
        )
        w = genome.decode()
        assert w.w_dep == 0.0  # negative scalar clamped up
        assert w.w_count == 2.0
        assert w.deprel_weights == {"conj": 1.0, "det": -1.0}
        assert w.default_deprel_weight == 0.0

    def test_decode_matches_scalar_order(self):
        genome = Genome(labels=(), values=(0.1, 0.2, 0.3, 0.4, 0.5))
        w = genome.decode()
        assert (w.w_dep, w.w_count, w.w_balance, w.w_depth, w.w_cross) == (
            0.1, 0.2, 0.3, 0.4, 0.5)


class TestEvoConfig:
    def test_defaults(self):
        cfg = EvoConfig()
        assert (cfg.population, cfg.generations, cfg.tournament_k) == (40, 60, 3)
        assert (cfg.crossover_rate, cfg.mutation_sigma, cfg.mutation_rate) == (0.7, 0.1, 0.2)
        assert (cfg.elitism, cfg.fitness_metric) == (2, "precision")

    def test_validation(self):
        with pytest.raises(ValueError):
            EvoConfig(population=2, elitism=2)
        with pytest.raises(ValueError):
            EvoConfig(elitism=-1)
        with pytest.raises(ValueError):
            EvoConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            EvoConfig(fitness_metric="accuracy")

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("generations", -1, "generations must be >= 0"),
            ("tournament_k", 0, "tournament_k must be >= 1"),
            ("mutation_sigma", 0, "mutation_sigma must be positive"),
            ("mutation_sigma", math.nan, "mutation_sigma must be positive and finite"),
            ("mutation_sigma", math.inf, "mutation_sigma must be positive and finite"),
        ],
        ids=["generations", "tournament_k", "mutation_sigma", "mutation_sigma-nan",
             "mutation_sigma-inf"],
    )
    def test_refuses_a_value_out_of_range(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            EvoConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["float", "integral-float", "bool"])
    @pytest.mark.parametrize(
        "name", ["population", "generations", "tournament_k", "elitism", "seed"]
    )
    def test_refuses_a_count_that_is_not_an_integer(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            EvoConfig(**{name: value})


class TestCorpusLabels:
    def test_sorted_unique_labels(self):
        corpus = _teacher_corpus(11, 5)
        labels = corpus_labels(corpus)
        assert list(labels) == sorted(set(labels))
        seen = {t.deprel for e in corpus for t in e.sentence.tokens}
        assert set(labels) == seen


class TestFitness:
    def test_perfect_weights_score_one(self):
        corpus = _teacher_corpus(23, 12)
        labels = corpus_labels(corpus)
        genome = Genome(
            labels=labels,
            values=(
                TEACHER.w_dep, TEACHER.w_count, TEACHER.w_balance,
                TEACHER.w_depth, TEACHER.w_cross,
                *(TEACHER.lookup(label) for label in labels),
            ),
        )
        assert fitness(genome, corpus, SPAN) == 1.0

    @pytest.mark.parametrize("metric", ["recall", "bogus", "F1"])
    def test_unknown_metric_is_refused_like_the_config(self, metric):
        data = resources.files("rhesis").joinpath("data")
        sentences = parse_conllu(data.joinpath("fixture.conllu").read_bytes())
        corpus = align_gold(sentences, parse_gold(data.joinpath("fixture.rhz").read_bytes()))
        genome = Genome(labels=(), values=(1.0, 0.0, 0.0, 0.0, 0.0))
        assert 0 < fitness(genome, corpus, SpanConfig(), "f1") < 1
        with pytest.raises(ValueError, match=f"fitness_metric must be in .*{metric!r}"):
            fitness(genome, corpus, SpanConfig(), metric)
        with pytest.raises(ValueError, match=f"fitness_metric must be in .*{metric!r}"):
            EvoConfig(fitness_metric=metric)

    def test_empty_corpus_rejected(self):
        genome = Genome(labels=(), values=(1.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            fitness(genome, AlignedCorpus(entries=()), SPAN)

    def test_f1_metric_selectable(self):
        corpus = _teacher_corpus(29, 8)
        labels = corpus_labels(corpus)
        genome = Genome(labels=labels, values=(1.0, *([0.0] * (4 + len(labels)))))
        p = fitness(genome, corpus, SPAN, metric="precision")
        f = fitness(genome, corpus, SPAN, metric="f1")
        assert 0.0 <= p <= 1.0 and 0.0 <= f <= 1.0


class TestEvolve:
    def test_zero_generations_returns_initial_best(self):
        corpus = _teacher_corpus(31, 6)
        best, trace = evolve(corpus, EvoConfig(population=8, generations=0, seed=5), SPAN)
        assert len(trace) == 1
        assert fitness(best, corpus, SPAN) == trace[0]

    def test_same_seed_reproduces_exactly(self):
        corpus = _teacher_corpus(37, 10)
        cfg = EvoConfig(population=10, generations=8, seed=99)
        best1, trace1 = evolve(corpus, cfg, SPAN)
        best2, trace2 = evolve(corpus, cfg, SPAN)
        assert trace1 == trace2
        assert best1 == best2
        assert weights_to_json(best1.decode()) == weights_to_json(best2.decode())

    def test_different_seeds_usually_differ(self):
        corpus = _teacher_corpus(41, 6)
        _, trace_a = evolve(corpus, EvoConfig(population=8, generations=4, seed=1), SPAN)
        _, trace_b = evolve(corpus, EvoConfig(population=8, generations=4, seed=2), SPAN)
        # not a hard guarantee, but these fixed seeds do diverge
        assert trace_a != trace_b

    def test_trace_monotone_and_sized(self):
        corpus = _teacher_corpus(43, 8)
        cfg = EvoConfig(population=8, generations=12, seed=3)
        _, trace = evolve(corpus, cfg, SPAN)
        assert len(trace) == cfg.generations + 1
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] >= trace[0]

    def test_genomes_decode_to_valid_weights(self):
        corpus = _teacher_corpus(47, 6)
        best, _ = evolve(corpus, EvoConfig(population=8, generations=6, seed=7), SPAN)
        w = best.decode()
        assert min(w.w_dep, w.w_count, w.w_balance, w.w_depth, w.w_cross) >= 0.0
        assert all(-1.0 <= v <= 1.0 for v in w.deprel_weights.values())

    def test_learns_teacher_signal(self):
        corpus = _teacher_corpus(53, 20)
        zero = Genome(
            labels=corpus_labels(corpus),
            values=(0.0,) * (5 + len(corpus_labels(corpus))),
        )
        baseline = fitness(zero, corpus, SPAN)
        best, trace = evolve(corpus, EvoConfig(population=24, generations=25, seed=13), SPAN)
        assert trace[-1] >= baseline
        assert trace[-1] > 0.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            evolve(AlignedCorpus(entries=()), EvoConfig(population=4, generations=1), SPAN)


def test_gene_order_follows_the_scalar_weight_fields():
    assert SCALAR_ORDER == ("w_dep", "w_count", "w_balance", "w_depth", "w_cross")


# SHA-256 of the tuned weights file plus the JSON trace, per span and fitness
# metric, for EvoConfig(population=8, generations=5, seed=42) on the bundled
# fixture, whose gold holds two documents: the fitness is their gold-weighted
# mean.  A faster tuner must reproduce these bytes exactly.
_PINNED_TUNES = [
    (SpanConfig(), "precision",
     "4b9bd971ee0acf44a7cca561012f9c3f8021cb574848712c6b9b0c4a75aecbaf"),
    (SpanConfig(max_chars=20, target_chars=12), "precision",
     "87bed6cb766a1a4c08d6e9d12f52f3b45439bfe35658469893c144ec2ad5f816"),
    (SpanConfig(max_chars=6, target_chars=3, count_mode="words"), "precision",
     "871b599b2f86f4d8e6db10256bc82cea24d62ab7da6dffa48b61cc6e3390d668"),
    (SpanConfig(), "f1",
     "560f93135ee4aac35994f1e2403e53ee2c772df80a616ec617fd06ef98ae53ff"),
]


@pytest.mark.parametrize(
    "span, metric, digest", _PINNED_TUNES, ids=["chars45", "chars20", "words6", "f1"]
)
def test_fixture_tune_is_byte_identical(span, metric, digest):
    data = resources.files("rhesis").joinpath("data")
    sentences = parse_conllu(data.joinpath("fixture.conllu").read_bytes())
    corpus = align_gold(sentences, parse_gold(data.joinpath("fixture.rhz").read_bytes()))
    cfg = EvoConfig(population=8, generations=5, seed=42, fitness_metric=metric)
    genome, trace = evolve(corpus, cfg, span)
    payload = weights_to_json(genome.decode()) + json.dumps(trace) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "span", [SpanConfig(), SpanConfig(20, 12), SpanConfig(4, 3, "words")],
    ids=["default", "chars20", "words4"],
)
def test_fitness_is_the_eval_metric_exactly(span):
    """The tuner's fitness is ``eval``'s headline, to the last bit: the gold-weighted mean of
    ``document_report``'s per-document precisions (or F1s).  Besides the bundled gold, the
    relabelled one puts the fixture under three documents, two of them in two runs; tripled,
    that corpus fills two batched blocks, each holding sentences of every document."""
    data = resources.files("rhesis").joinpath("data")
    sentences = parse_conllu(data.joinpath("fixture.conllu").read_bytes())
    bundled = align_gold(sentences, parse_gold(data.joinpath("fixture.rhz").read_bytes()))
    relabelled = align_gold(sentences, parse_gold(relabelled_fixture_gold()))
    for corpus in (bundled, AlignedCorpus(entries=relabelled.entries * 3)):
        labels = corpus_labels(corpus)
        rng = random.Random(25)
        for _ in range(15):
            values = [rng.uniform(0.0, 1.0) for _ in SCALAR_ORDER]
            values += [rng.uniform(-1.0, 1.0) for _ in labels]
            genome = Genome(labels=labels, values=tuple(values))
            auto = [segment_best(e.sentence, genome.decode(), span) for e in corpus]
            report = document_report(auto, corpus)
            assert fitness(genome, corpus, span, "precision") == report.weighted_precision
            assert fitness(genome, corpus, span, "f1") == _weighted_mean(report.per_doc, "f1")
