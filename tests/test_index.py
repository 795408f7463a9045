"""Properties of the per-sentence index and the windowed DP.

The index (``scoring._Structure``) must agree with the reference tree
queries it replaces, and ``_dp.best_cuts`` must agree with a full scan of
every start, which is kept here as the reference.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    EvoConfig,
    SpanConfig,
    Sentence,
    Token,
    crossing_edges,
    evolve,
    export_candidates,
    subtree_span,
    token_depth,
)
from rhesis._dp import _better, best_cuts
from rhesis.evolve import _FitnessContext
from rhesis.scoring import _Structure

from helpers import corpus_from_golds, random_segmentation, random_sentence

SEEDS = st.integers(0, 2**32 - 1)


def _tree(seed: int, n_max: int = 30) -> Sentence:
    return random_sentence(random.Random(seed), 2, n_max)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_cut_features_equal_crossing_edges(seed):
    sent = _tree(seed)
    index = _Structure(sent, SpanConfig())
    assert index.candidates == tuple(
        crossing_edges(sent, p) for p in range(1, len(sent))
    )


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_depth_and_extents_equal_the_reference_queries(seed):
    sent = _tree(seed)
    index = _Structure(sent, SpanConfig())
    for i in range(1, len(sent) + 1):
        assert index.depth[i] == token_depth(sent, i)
        assert index.extents[i] == subtree_span(sent, i)


# Spaced forms, empty forms and forms longer than the span budget.
_FORMS = st.text(alphabet="ab  ", min_size=0, max_size=5) | st.just("abcdefghij")


@settings(max_examples=300, deadline=None)
@given(
    forms=st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=9),
    mode=st.sampled_from(["characters", "words"]),
)
def test_measure_never_shrinks_as_the_span_widens(forms, mode):
    toks = [
        Token(index=i, form=form, upos="X", head=i - 1, deprel="root" if i == 1 else "dep",
              misc="" if space else "SpaceAfter=No")
        for i, (form, space) in enumerate(forms, start=1)
    ]
    sent = Sentence.from_tokens("m", toks)
    index = _Structure(sent, SpanConfig(max_chars=4, target_chars=2, count_mode=mode))
    n = len(toks)
    for b in range(1, n + 1):
        assert index.admissible(b, b)
        for a in range(1, b):
            assert index.measure(a, b) >= index.measure(a + 1, b)
            assert index.admissible(a, b) <= index.admissible(a + 1, b)
        if b < n:
            for a in range(1, b + 1):
                assert index.measure(a, b + 1) >= index.measure(a, b)


def _full_scan_cuts(n, segment_term, cut_term, admissible):
    """best_cuts before windowing: every start tried for every end."""
    best = [None] * (n + 1)
    best[0] = (0, 0, ())
    for j in range(1, n + 1):
        chosen = None
        for i in range(j):
            prev = best[i]
            if prev is None or not admissible(i + 1, j):
                continue
            score = prev[0] + segment_term(i + 1, j)
            if i > 0:
                score += cut_term(i)
                cuts = prev[2] + (i,)
            else:
                cuts = ()
            cand = (score, prev[1] + 1, cuts)
            if chosen is None or _better(cand, chosen):
                chosen = cand
        best[j] = chosen
    return best[n][2]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), spread=st.integers(0, 3))
def test_windowed_best_cuts_equals_a_full_scan(data, n, spread):
    # small term ranges make ties common, so the tie-breaks are exercised too
    terms = st.integers(-spread, spread)
    seg = {(a, b): data.draw(terms) for b in range(1, n + 1) for a in range(1, b + 1)}
    cut = [data.draw(terms) for _ in range(n)]
    # a..b is admissible from some start onward: monotone, singletons included
    first = [0] + [data.draw(st.integers(1, b)) for b in range(1, n + 1)]

    def admissible(a, b):
        return a >= first[b]

    args = (n, lambda a, b: seg[a, b], lambda i: cut[i], admissible)
    assert best_cuts(*args) == _full_scan_cuts(*args)


def _reference_export(corpus, negatives_per_positive, seed, span):
    """export_candidates as first written: every pool rebuilt from span texts."""
    from rhesis.dataset import _example
    from rhesis.span import fits_span

    rng = random.Random(seed)
    examples = []
    for entry in corpus:
        sentence = entry.sentence
        n = len(sentence.tokens)
        gold_spans = list(entry.gold.spans())
        used = set(gold_spans)

        def feasible(s, e):
            return fits_span(sentence.span_text(s, e), span)

        for gs, ge in gold_spans:
            examples.append(_example(sentence, gs, ge, 1))
        for gs, ge in gold_spans:
            smart = [(gs, e) for e in range(gs, n + 1) if e != ge]
            smart += [(s, ge) for s in range(1, ge + 1) if s != gs]
            pool = sorted(c for c in smart if c not in used and feasible(*c))
            chosen = rng.sample(pool, min(negatives_per_positive, len(pool)))
            used.update(chosen)
            if len(chosen) < negatives_per_positive:
                fallback = sorted(
                    (s, e) for s in range(1, n + 1) for e in range(s, n + 1)
                    if (s, e) not in used and feasible(s, e)
                )
                extra = rng.sample(
                    fallback, min(negatives_per_positive - len(chosen), len(fallback))
                )
                used.update(extra)
                chosen += extra
            for s, e in chosen:
                examples.append(_example(sentence, s, e, 0))
    rng.shuffle(examples)
    return examples


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    negatives=st.integers(0, 6),
    max_chars=st.integers(3, 40),
    mode=st.sampled_from(["characters", "words"]),
)
def test_export_equals_the_span_text_reference(seed, negatives, max_chars, mode):
    rng = random.Random(seed)
    sentences = [random_sentence(rng, 2, 16, sent_id=f"e{k}") for k in range(3)]
    corpus = corpus_from_golds(sentences, [random_segmentation(rng, s) for s in sentences])
    span = SpanConfig(max_chars=max_chars, target_chars=1, count_mode=mode)
    assert export_candidates(corpus, negatives, seed, span) == _reference_export(
        corpus, negatives, seed, span
    )


def test_evolve_evaluates_each_distinct_genome_once(monkeypatch):
    rng = random.Random(8)
    sentences = [random_sentence(rng, 4, 10, sent_id=f"g{k}") for k in range(4)]
    corpus = corpus_from_golds(sentences, [random_segmentation(rng, s) for s in sentences])
    cfg = EvoConfig(population=6, generations=4, elitism=2, mutation_rate=0.1, seed=5)
    span = SpanConfig(max_chars=20, target_chars=10)
    seen = []
    original = _FitnessContext.evaluate

    def counting(self, weights):
        seen.append(repr(weights))
        return original(self, weights)

    monkeypatch.setattr(_FitnessContext, "evaluate", counting)
    evolve(corpus, cfg, span)
    assert len(seen) == len(set(seen))
    assert len(seen) < cfg.population * (cfg.generations + 1)
