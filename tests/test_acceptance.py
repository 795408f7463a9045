"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL verdict line naming its guarantee, so a
captured run reads as a checklist.  Tolerances and suite sizes are part of
the guarantee and are pinned here, not in the modules under test.
"""

import itertools
import math
import random
import time
import warnings
from contextlib import contextmanager
from importlib import resources

import pytest

from rhesis import (
    CascadeConfig,
    EvoConfig,
    OversizedTokenWarning,
    PerDocRow,
    ScoreTable,
    ScoringWeights,
    Sentence,
    SpanConfig,
    Token,
    align_gold,
    cascade_segment,
    corpus_report,
    crossing_edges,
    cut_score,
    enumerate_all,
    evolve,
    export_candidates,
    candidates_to_tsv,
    finetune_manifest,
    fits_span,
    parse_conllu,
    parse_gold,
    regroup,
    render_text,
    rhesis_precision,
    boundary_prf,
    segment_best,
    segment_by_scores,
    segmentation_from_cuts,
    segmentation_score,
    write_weights,
)
from rhesis._dp import SCALE, scaled

from helpers import DEPRELS, corpus_from_golds, random_sentence, random_sentences


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL — {name}")
        raise
    print(f"PASS — {name}")


def _fixture_corpus():
    data = resources.files("rhesis").joinpath("data")
    sentences = parse_conllu(data.joinpath("fixture.conllu").read_bytes())
    gold = parse_gold(data.joinpath("fixture.rhz").read_bytes())
    return sentences, align_gold(sentences, gold)


def _random_weights(rng):
    table = {d: rng.uniform(-1.0, 1.0) for d in rng.sample(DEPRELS, 8)}
    return ScoringWeights(
        w_dep=rng.uniform(0.0, 1.0),
        w_count=rng.uniform(0.0, 0.4),
        w_balance=rng.uniform(0.0, 0.25),
        w_depth=rng.uniform(0.0, 0.3),
        w_cross=rng.uniform(0.0, 0.3),
        deprel_weights=table,
        default_deprel_weight=rng.uniform(-0.25, 0.25),
    )


def test_weighted_aggregation_of_reference_document_rows():
    """Five-document weighted averages land on the pinned values ±0.05."""
    counts = (1633, 761, 1805, 7989, 6670)
    columns = {
        "cascade": ((58.0, 76.7, 65.7, 70.6, 77.6), 71.8),
        "tree": ((65.7, 71.3, 71.2, 77.5, 75.6), 75.0),
        "classifier": ((68.7, 72.7, 72.2, 80.5, 85.5), 80.1),
    }
    with criterion("weighted corpus aggregation reproduces the reference row"):
        start = time.perf_counter()
        averages = {}
        for name, (precisions, expected) in columns.items():
            rows = [
                PerDocRow(label=f"doc{i}", rhesis_count=c, precision=p)
                for i, (c, p) in enumerate(zip(counts, precisions), start=1)
            ]
            averages[name] = corpus_report(rows).weighted_precision
            assert averages[name] == pytest.approx(expected, abs=0.05)
        assert averages["tree"] - averages["cascade"] == pytest.approx(3.2, abs=0.05)
        assert time.perf_counter() - start < 1.0


def test_tree_segmenter_agrees_with_exhaustive_oracle():
    """segment_best equals the enumeration optimum, ties included, 1000/1000."""
    rng = random.Random(31415)
    span = SpanConfig(max_chars=28, target_chars=18)
    with criterion("tree segmenter matches the exhaustive oracle on 1000 sentences"):
        start = time.perf_counter()
        for i in range(1000):
            sent = random_sentence(rng, 3, 12, sent_id=f"o{i}")
            w = _random_weights(rng)
            cut_terms = [
                scaled(cut_score(crossing_edges(sent, p), w))
                for p in range(1, len(sent.tokens))
            ]

            def total(seg):
                t = sum(cut_terms[p - 1] for p in seg.cuts())
                t += sum(
                    scaled(-w.w_balance * abs(len(r.text) - span.target_chars))
                    for r in seg.rhesis
                )
                return t

            candidates = enumerate_all(sent, span)
            best, best_total = candidates[0], total(candidates[0])
            for cand in candidates[1:]:
                t = total(cand)
                if t > best_total:  # first max == fewest, then earliest cuts
                    best, best_total = cand, t
            got = segment_best(sent, w, span)
            assert got.spans() == best.spans()
            assert segmentation_score(sent, got, w, span) == best_total / SCALE
        assert time.perf_counter() - start < 30.0


def test_score_segmenter_agrees_with_exhaustive_oracle():
    """segment_by_scores equals brute-force log-probability search, 1000/1000."""
    rng = random.Random(27182)
    span = SpanConfig(max_chars=500, target_chars=300)
    epsilon = 0.01
    with criterion("score segmenter matches the exhaustive oracle on 1000 sentences"):
        for i in range(1000):
            sent = random_sentence(rng, 3, 12, sent_id=f"p{i}")
            n = len(sent.tokens)
            probs = {
                (sent.sent_id, s, e): rng.random()
                for s in range(1, n + 1)
                for e in range(s, n + 1)
                if rng.random() < 0.6
            }
            table = ScoreTable(probabilities=probs)
            term = {}
            for s in range(1, n + 1):
                for e in range(s, n + 1):
                    p = probs.get((sent.sent_id, s, e), epsilon)
                    term[(s, e)] = scaled(math.log(max(p, 1e-300)))
            best = None
            for k in range(n):
                for cuts in itertools.combinations(range(1, n), k):
                    bounds = (0, *cuts, n)
                    t = sum(term[(a + 1, b)] for a, b in zip(bounds, bounds[1:]))
                    if best is None or t > best[0]:
                        best = (t, cuts)
            seg = segment_by_scores(sent, table, span, epsilon=epsilon)
            assert seg.cuts() == best[1]
            bounds = (0, *seg.cuts(), n)
            assert sum(term[(a + 1, b)] for a, b in zip(bounds, bounds[1:])) == best[0]


def test_every_method_respects_the_span_budget():
    """Across 10,000 sentences, all three methods and both count modes: every
    rhesis fits the span or is a single token that raised a warning.  Zero
    violations."""
    rng = random.Random(271828)
    spans = (
        SpanConfig(max_chars=8, target_chars=6),
        SpanConfig(max_chars=20, target_chars=14),
        SpanConfig(max_chars=45, target_chars=32),
        SpanConfig(max_chars=3, target_chars=2, count_mode="words"),
    )
    cascades = tuple(CascadeConfig(span=s) for s in spans)
    weights = ScoringWeights(
        w_dep=1.0, w_count=0.05, w_balance=0.02,
        deprel_weights={"conj": 0.8, "advcl": 0.6, "det": -0.6, "case": -0.5},
    )
    with criterion("span safety holds for all three methods over 10,000 sentences"):
        violations = 0
        for i in range(10_000):
            sent = random_sentence(rng, 3, 12, sent_id=f"s{i}")
            n = len(sent.tokens)
            span, cascade = spans[i % len(spans)], cascades[i % len(spans)]
            probs = {
                (sent.sent_id, s, e): rng.random()
                for s in range(1, n + 1)
                for e in range(s, min(s + 3, n) + 1)
            }
            runs = (
                lambda: regroup(sent, cascade_segment(sent, cascade), cascade),
                lambda: segment_best(sent, weights, span),
                lambda: segment_by_scores(sent, ScoreTable(probabilities=probs), span),
            )
            for run in runs:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    seg = run()
                warned = any(
                    issubclass(w.category, OversizedTokenWarning) for w in caught
                )
                for r in seg.rhesis:
                    if fits_span(r.text, span):
                        continue
                    if r.start == r.end and warned:
                        continue
                    violations += 1
        assert violations == 0


def test_regroup_is_idempotent_and_never_adds_pieces():
    """On 1000 random cascade outputs, regrouping twice equals once and the
    piece count never grows.  Zero violations."""
    rng = random.Random(14142)
    cfg = CascadeConfig(span=SpanConfig(max_chars=18, target_chars=12))
    with criterion("regroup is idempotent and non-increasing on 1000 cascade outputs"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(1000):
                sent = random_sentence(rng, 3, 14, sent_id=f"r{i}")
                seg = cascade_segment(sent, cfg)
                once = regroup(sent, seg, cfg)
                twice = regroup(sent, once, cfg)
                assert twice.spans() == once.spans()
                assert len(once.rhesis) <= len(seg.rhesis)


def test_rendered_text_round_trips_through_the_gold_reader():
    """render_text output re-parses and re-aligns to the same 1000 span sets."""
    rng = random.Random(16180)
    with criterion("text rendering round-trips 1000 random segmentations"):
        sentences = []
        segs = []
        for i in range(1000):
            sent = random_sentence(rng, 3, 12, sent_id=f"t{i}")
            cuts = tuple(
                p for p in range(1, len(sent.tokens)) if rng.random() < 0.35
            )
            sentences.append(sent)
            segs.append(segmentation_from_cuts(sent, cuts))
        text = render_text(segs)
        corpus = align_gold(sentences, parse_gold(text))
        assert len(corpus.entries) == 1000
        for entry, seg in zip(corpus.entries, segs):
            assert entry.gold.spans() == seg.spans()


def test_tuner_is_deterministic_and_monotone(tmp_path):
    """Two seed-42 runs on a 50-sentence corpus write byte-identical weight
    files; the fitness trace never decreases; elitism keeps final ≥ initial."""
    rng = random.Random(20260819)
    teacher = ScoringWeights(
        w_dep=1.0, w_count=0.125, w_balance=0.05,
        deprel_weights={"conj": 0.9, "advcl": 0.8, "parataxis": 0.7, "obl": 0.4,
                        "det": -0.8, "case": -0.8, "amod": -0.6, "aux": -0.7},
    )
    span = SpanConfig(max_chars=30, target_chars=18)
    sentences = random_sentences(rng, 50, 4, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        golds = [segment_best(s, teacher, span) for s in sentences]
    corpus = corpus_from_golds(sentences, golds)
    cfg = EvoConfig(seed=42)  # default population/generations/elitism
    with criterion("tuner runs are byte-deterministic with a monotone trace"):
        start = time.perf_counter()
        best1, trace1 = evolve(corpus, cfg, span)
        best2, trace2 = evolve(corpus, cfg, span)
        elapsed = time.perf_counter() - start
        paths = (tmp_path / "run1.json", tmp_path / "run2.json")
        write_weights(paths[0], best1.decode())
        write_weights(paths[1], best2.decode())
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert trace1 == trace2
        assert all(a <= b for a, b in zip(trace1, trace1[1:]))
        assert cfg.elitism >= 1 and trace1[-1] >= trace1[0]
        assert elapsed / 2 < 120.0


def _flat(sent_id, forms):
    tokens = [
        Token(index=i, form=f, upos="NOUN" if i > 1 else "VERB",
              head=0 if i == 1 else 1, deprel="root" if i == 1 else "obj",
              misc="")
        for i, f in enumerate(forms, start=1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


def test_metric_micro_values():
    """Two shared spans out of three produced → precision 2/3; identity → 1.0;
    boundaries {2} against {2,5} → (1.0, 0.5)."""
    s1 = _flat("m1", ["un", "deux", "trois", "quatre"])
    s2 = _flat("m2", ["a", "b", "c", "d", "e", "f"])
    with criterion("metric micro-checks hit their exact values"):
        auto = [segmentation_from_cuts(s1, (2,)), segmentation_from_cuts(s2, ())]
        gold = [segmentation_from_cuts(s1, (2,)), segmentation_from_cuts(s2, (3,))]
        assert rhesis_precision(auto, gold)[0] == pytest.approx(2 / 3)

        same = [segmentation_from_cuts(s1, (1, 3)), segmentation_from_cuts(s2, (2,))]
        assert rhesis_precision(same, same) == (1.0, 1.0, 1.0)

        b_auto = [segmentation_from_cuts(s2, (2,))]
        b_gold = [segmentation_from_cuts(s2, (2, 5))]
        precision, recall, _ = boundary_prf(b_auto, b_gold)
        assert (precision, recall) == (1.0, 0.5)


def test_export_candidates_integrity():
    """Positives equal the gold rhesis count, negatives never collide with
    gold spans, equal seeds give equal bytes, and the manifest carries the
    recommended settings verbatim."""
    _, corpus = _fixture_corpus()
    gold_by_sentence = {
        entry.sentence.sent_id: set(entry.gold.spans()) for entry in corpus
    }
    total_gold = sum(len(entry.gold.rhesis) for entry in corpus)
    with criterion("candidate export preserves gold counts, span disjointness, determinism"):
        examples = export_candidates(corpus, 3, seed=7)
        positives = [e for e in examples if e.label == 1]
        negatives = [e for e in examples if e.label == 0]
        assert len(positives) == total_gold
        assert {(e.sentence_id, e.start, e.end) for e in positives} == {
            (sid, s, e) for sid, spans in gold_by_sentence.items() for s, e in spans
        }
        for e in negatives:
            assert (e.start, e.end) not in gold_by_sentence[e.sentence_id]
        again = export_candidates(corpus, 3, seed=7)
        assert candidates_to_tsv(examples).encode() == candidates_to_tsv(again).encode()
        manifest = finetune_manifest(3, 7, len(positives), len(negatives))
        assert manifest["max_seq_length"] == 48
        assert manifest["batch_size"] == 16
        assert manifest["learning_rate"] == 2e-5
        assert manifest["epochs"] == 3


def test_bundled_fixture_end_to_end():
    """On the bundled French fixture: tuned tree weights beat the default
    weights strictly, and cascade+regroup reaches at least 50% precision."""
    sentences, corpus = _fixture_corpus()
    gold = [entry.gold for entry in corpus]
    span = SpanConfig()
    cascade_cfg = CascadeConfig(span=span)
    with criterion("fixture end-to-end: tuned beats default, cascade clears 50%"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cascade_segs = [
                regroup(s, cascade_segment(s, cascade_cfg), cascade_cfg)
                for s in sentences
            ]
            default_segs = [segment_best(s, ScoringWeights(), span) for s in sentences]
            best, _ = evolve(corpus, EvoConfig(seed=42), span)
            tuned = best.decode()
            tuned_segs = [segment_best(s, tuned, span) for s in sentences]
        cascade_p = rhesis_precision(cascade_segs, gold)[0]
        default_p = rhesis_precision(default_segs, gold)[0]
        tuned_p = rhesis_precision(tuned_segs, gold)[0]
        assert tuned_p > default_p
        assert cascade_p >= 0.5
