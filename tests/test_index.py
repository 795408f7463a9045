"""Properties of the per-sentence index and the suffix DP.

The index (``scoring._Structure``) must agree with the reference tree and
span queries it replaces, the cascade's clause onsets with the subtree
spans, ``_dp.best_cuts`` with a full scan of every start, which is kept
here as the reference, and both optimizing segmenters with exhaustive
enumeration where the span binds.
"""

import dataclasses
import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    CUT_LEVELS,
    CascadeConfig,
    EvoConfig,
    ScoreTable,
    ScoringWeights,
    SpanConfig,
    Sentence,
    Token,
    crossing_edges,
    cut_score,
    enumerate_all,
    evolve,
    export_candidates,
    find_cuts_at_level,
    segment_best,
    segment_by_scores,
    subtree_span,
)
from rhesis import cascade, corpus, scoring
from rhesis._dp import best_cuts, scaled
from rhesis.cascade import _clause_onsets
from rhesis.corpus import segmentation_from_cuts
from rhesis.evolve import _NONE, _Block, _FitnessContext, _spans_from_cuts
from rhesis.scoring import _cut_terms, _optimal_cuts, _Structure
from rhesis.span import text_measure

import scoring_reference
from helpers import DEPRELS, corpus_from_golds, random_segmentation, random_sentence

SEEDS = st.integers(0, 2**32 - 1)


def _tree(seed: int, n_max: int = 30) -> Sentence:
    return random_sentence(random.Random(seed), 2, n_max)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_cut_features_equal_crossing_edges(seed):
    sent = _tree(seed)
    deprels, depths, crossings = _Structure(sent, SpanConfig()).cut_features
    assert len(deprels) == len(depths) == len(crossings) == len(sent) - 1
    for p in range(1, len(sent)):
        cand = crossing_edges(sent, p)
        assert deprels[p - 1] == cand.primary_edge[2]
        assert depths[p - 1] == cand.depth
        assert crossings[p - 1] == len(cand.crossing)


def test_index_reads_the_traversal_the_sentence_kept(monkeypatch):
    sent = _tree(3)
    assert "_tree" not in repr(sent)
    features = _Structure(sent, SpanConfig()).cut_features
    onsets = find_cuts_at_level(sent, (1, len(sent)), CUT_LEVELS[1], CascadeConfig())

    def walked(*args):
        raise AssertionError("the tree was traversed a second time")

    monkeypatch.setattr(corpus, "_top_down", walked)
    monkeypatch.setattr(scoring, "_top_down", walked, raising=False)
    monkeypatch.setattr(cascade, "_top_down", walked, raising=False)
    assert _Structure(sent, SpanConfig()).cut_features == features
    assert find_cuts_at_level(sent, (1, len(sent)), CUT_LEVELS[1], CascadeConfig()) == onsets


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_clause_onsets_are_the_subtree_left_edges(seed):
    # every token marks a clause through its label alone, so every subtree's left edge is cut
    nouns = [dataclasses.replace(tok, upos="NOUN") for tok in _tree(seed).tokens]
    sent = Sentence.from_tokens("c", nouns)
    config = CascadeConfig(clause_deprels=frozenset([*DEPRELS, "root"]))
    want = {subtree_span(sent, i)[0] - 1 for i in range(1, len(sent) + 1)}
    assert _clause_onsets(sent, config) == want


# Spaced forms and forms longer than the span budget; never blank.
_FORMS = st.text(alphabet="ab  ", min_size=1, max_size=5).filter(str.strip) | st.just("abcdefghij")


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
        for a in range(1, b):
            assert index.measure(a, b) >= index.measure(a + 1, b)
        if b < n:
            for a in range(1, b + 1):
                assert index.measure(a, b + 1) >= index.measure(a, b)


def _reshaped(seed: int, forms) -> Sentence:
    """A random tree carrying the drawn forms: spaced and oversized ones."""
    sent = random_sentence(random.Random(seed), len(forms), len(forms), sent_id="t")
    toks = [
        dataclasses.replace(tok, form=form, misc="" if space else "SpaceAfter=No")
        for tok, (form, space) in zip(sent.tokens, forms)
    ]
    return Sentence.from_tokens("t", toks)


def _block_rows(index: _Structure) -> list[list[int]]:
    """The measures the tuner's ``_Block`` lays out for one sentence, one row per start.

    ``rows[a - 1][k]`` is the block's ``measure[n - a, k, 0]`` for every
    admissible ``a..a + k``; the inadmissible ones, ``_NONE``, must follow
    them, so the admissible ends from ``a`` are contiguous.
    """
    block = _Block([(index, frozenset())], dict.fromkeys(index.cut_features[0], 0))
    assert block.measure.shape[::2] == (index.n, 1)
    rows = []
    for a in range(1, index.n + 1):
        column = block.measure[index.n - a, :, 0].tolist()
        row = list(itertools.takewhile(lambda m: m != _NONE, column))
        assert set(column[len(row) :]) <= {_NONE}
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    forms=st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=9),
    mode=st.sampled_from(["characters", "words"]),
    max_units=st.integers(1, 12),
)
def test_fit_end_and_block_measures_equal_a_brute_scan(seed, forms, mode, max_units):
    span = SpanConfig(max_chars=max_units, target_chars=1, count_mode=mode)
    sent = _reshaped(seed, forms)
    index = _Structure(sent, span)
    n = index.n
    rows = _block_rows(index)
    assert len(index.fit_end) == n + 1 and len(rows) == n
    # the block keeps each admissible measure as it is and _NONE for the others, and
    # the context's distance is indexed by the measure itself
    context = _FitnessContext(
        corpus_from_golds([sent], [random_segmentation(random.Random(seed), sent)]), span, "f1"
    )
    (block,) = context.blocks
    for a in range(1, n + 1):
        fitting = [e for e in range(a, n + 1) if index.measure(a, e) <= max_units]
        assert index.fit_end[a] == max(fitting, default=a - 1)
        row = rows[a - 1]
        assert len(row) == max(len(fitting), 1)  # an oversized token stands alone
        measures = block.measure[n - a, :, 0].tolist()
        assert measures[len(row) :] == [_NONE] * (len(measures) - len(row))
        for k, m in enumerate(row):
            assert m == index.measure(a, a + k) == measures[k]
            assert context.distance[m] == abs(m - span.target_chars)


# Nonzero balance, depth and crossing weights: every term of the index moves the optimum.
_NONZERO = st.sampled_from([1.0, 2.0]) | st.floats(0.01, 3)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    forms=st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=12),
    mode=st.sampled_from(["characters", "words"]),
    max_units=st.integers(1, 12),
    target=st.integers(1, 12),
    w=st.builds(
        ScoringWeights,
        w_dep=st.sampled_from([0.0, 1.0]) | st.floats(0, 3),
        w_count=st.sampled_from([0.0, 1.0]) | st.floats(0, 3),
        w_balance=_NONZERO,
        w_depth=_NONZERO,
        w_cross=_NONZERO,
        deprel_weights=st.dictionaries(
            st.sampled_from(DEPRELS), st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1, 1)
        ),
        default_deprel_weight=st.sampled_from([-1.0, 0.0, 0.5]),
    ),
)
def test_index_equals_the_previous_index(seed, forms, mode, max_units, target, w):
    sent = _reshaped(seed, forms)
    span = SpanConfig(max_chars=max_units, target_chars=min(target, max_units), count_mode=mode)
    index = _Structure(sent, span)
    reference = scoring_reference._Structure(sent, span)
    assert index.fit_end == reference.fit_end
    assert _block_rows(index) == reference.measure_rows
    assert index.cut_features == (
        [c.primary_edge[2] for c in reference.candidates],
        [c.depth for c in reference.candidates],
        [len(c.crossing) for c in reference.candidates],
    )
    for cand in reference.candidates:
        assert cut_score(cand, w) == scoring_reference.cut_score(cand, w)
    assert _cut_terms(index, w) == [
        scaled(scoring_reference.cut_score(c, w)) for c in reference.candidates
    ]
    assert _optimal_cuts(index, w) == scoring_reference._optimal_cuts(reference, w)


def _first_best(candidates, total):
    """The first maximum in enumeration order: fewest rhesis, then earliest cuts."""
    best, best_total = candidates[0], total(candidates[0])
    for cand in candidates[1:]:
        t = total(cand)
        if t > best_total:
            best, best_total = cand, t
    return best


_SMALL = st.integers(0, 2).map(float)
_TIGHT = {
    "forms": st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=8),
    "span": st.integers(3, 12).flatmap(
        lambda m: st.builds(
            SpanConfig,
            max_chars=st.just(m),
            target_chars=st.integers(1, m),
            count_mode=st.sampled_from(["characters", "words"]),
        )
    ),
}


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    **_TIGHT,
    scalars=st.tuples(_SMALL, _SMALL, _SMALL, _SMALL, _SMALL),
    table=st.dictionaries(st.sampled_from(DEPRELS), st.integers(-1, 1).map(float)),
)
def test_tree_segmenter_equals_enumeration_where_the_span_binds(
    seed, forms, span, scalars, table
):
    # integer-valued weights and measures make ties common
    sent = _reshaped(seed, forms)
    w = ScoringWeights(*scalars, deprel_weights=table)

    def total(seg):
        t = sum(scaled(cut_score(crossing_edges(sent, p), w)) for p in seg.cuts())
        return t + sum(
            scaled(-w.w_balance * abs(text_measure(r.text, span) - span.target_chars))
            for r in seg.rhesis
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = segment_best(sent, w, span)
    assert got.spans() == _first_best(enumerate_all(sent, span), total).spans()


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    seed=SEEDS,
    **_TIGHT,
    epsilon=st.sampled_from([0.25, 0.5]),
)
def test_score_segmenter_equals_enumeration_where_the_span_binds(
    data, seed, forms, span, epsilon
):
    sent = _reshaped(seed, forms)
    n = len(sent)
    # powers of two: products of probabilities tie exactly on the log grid
    probs = {
        ("t", a, b): p
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        if (p := data.draw(st.sampled_from([None, 0.0, 0.25, 0.5, 1.0]))) is not None
    }

    def total(seg):
        return sum(
            scaled(math.log(max(probs.get(("t", a, b), epsilon), 1e-300)))
            for a, b in seg.spans()
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = segment_by_scores(sent, ScoreTable(probabilities=probs), span, epsilon=epsilon)
    assert got.spans() == _first_best(enumerate_all(sent, span), total).spans()


def test_enumeration_does_not_read_the_index(monkeypatch):
    rng = random.Random(5)
    sentences = [random_sentence(rng, 1, 9, sent_id=f"o{k}") for k in range(20)]
    sentences.append(_reshaped(5, [("a b", True), ("abcdefghij", False), (" b", True)]))
    spans = [
        SpanConfig(max_chars=8, target_chars=4),
        SpanConfig(max_chars=2, target_chars=1, count_mode="words"),
    ]
    want = [enumerate_all(sent, span) for sent in sentences for span in spans]

    def unavailable(*args):
        raise AssertionError("the oracle read the index it checks")

    monkeypatch.setattr(scoring, "_Structure", unavailable)
    assert [enumerate_all(sent, span) for sent in sentences for span in spans] == want


def _better(a: tuple[int, int, tuple[int, ...]], b: tuple[int, int, tuple[int, ...]]) -> bool:
    """Whether candidate ``a`` beats ``b``: higher score, fewer segments, earlier cuts."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


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
    # a..b is admissible up to some last end: contiguous, singletons included
    last = [0] + [data.draw(st.integers(a, n)) for a in range(1, n + 1)]

    def admissible(a, b):
        return b <= last[a]

    rows = [[seg[a, b] for b in range(a, last[a] + 1)] for a in range(1, n + 1)]
    assert best_cuts(rows, cut[1:]) == _full_scan_cuts(
        n, lambda a, b: seg[a, b], lambda i: cut[i], admissible
    )


def test_best_cuts_refuses_an_empty_sentence():
    with pytest.raises(ValueError, match="need at least one token"):
        best_cuts([], [])


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
    original = _FitnessContext.evaluate_batch

    def counting(self, batch):
        seen.extend(repr(weights) for weights in batch)
        return original(self, batch)

    monkeypatch.setattr(_FitnessContext, "evaluate_batch", counting)
    evolve(corpus, cfg, span)
    assert seen
    assert len(seen) == len(set(seen))
    assert len(seen) < cfg.population * (cfg.generations + 1)


def _scalar_fitness(context, w):
    """The fitness from one ``_optimal_cuts`` per sentence: the batched DP's reference."""
    matched = total = 0
    for struct, gold_spans in context.items:
        auto_spans = _spans_from_cuts(_optimal_cuts(struct, w), struct.n)
        matched += len(auto_spans & gold_spans)
        total += len(auto_spans)
    return context._score(matched, total)


# Zero weights tie everything; the large ones stay just inside the int64 guard.
_SCALAR = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 3) | st.floats(1e3, 1e4)
_WEIGHTS = st.builds(
    ScoringWeights,
    w_dep=_SCALAR,
    w_count=_SCALAR,
    w_balance=_SCALAR,
    w_depth=_SCALAR,
    w_cross=_SCALAR,
    deprel_weights=st.dictionaries(
        st.sampled_from(DEPRELS), st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1, 1)
    ),
    default_deprel_weight=st.sampled_from([-1.0, 0.0, 0.5]),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    shapes=st.lists(st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=9),
                    min_size=1, max_size=5),
    span=_TIGHT["span"],
    batch=st.lists(_WEIGHTS, min_size=1, max_size=4),
    gold_from_first=st.booleans(),
    metric=st.sampled_from(["precision", "f1"]),
)
def test_batched_fitness_equals_the_scalar_dp(seed, shapes, span, batch, gold_from_first, metric):
    # sentences of mixed lengths share a block, so shorter ones sit in its padding
    sentences = [_reshaped(seed + k, forms) for k, forms in enumerate(shapes)]
    if gold_from_first:
        # the first genome must then reproduce every gold span: exact equality of its cuts
        golds = [
            segmentation_from_cuts(s, _optimal_cuts(_Structure(s, span), batch[0]))
            for s in sentences
        ]
    else:
        rng = random.Random(seed)
        golds = [random_segmentation(rng, s) for s in sentences]
    context = _FitnessContext(corpus_from_golds(sentences, golds), span, metric)
    got = context.evaluate_batch(batch)
    assert got == [_scalar_fitness(context, w) for w in batch]
    if gold_from_first and metric == "precision":
        assert got[0] == 1.0


def test_batched_fitness_spans_several_blocks():
    rng = random.Random(21)
    sentences = [random_sentence(rng, 1, 40, sent_id=f"b{k}") for k in range(150)]
    corpus = corpus_from_golds(sentences, [random_segmentation(rng, s) for s in sentences])
    context = _FitnessContext(corpus, SpanConfig(max_chars=30, target_chars=12), "f1")
    assert len(context.blocks) > 2
    batch = [ScoringWeights(), ScoringWeights(w_dep=0.0)] + [
        ScoringWeights(
            w_dep=rng.random(), w_count=rng.random(), w_balance=rng.random(),
            w_depth=rng.random(), w_cross=rng.random(),
            deprel_weights={d: rng.uniform(-1, 1) for d in DEPRELS},
        )
        for _ in range(4)
    ]
    assert context.evaluate_batch(batch) == [_scalar_fitness(context, w) for w in batch]


def test_an_empty_batch_has_no_fitness():
    # evolve hands over an empty batch when a whole generation is memo hits
    rng = random.Random(22)
    sentences = [random_sentence(rng, 1, 10, sent_id=f"e{k}") for k in range(3)]
    corpus = corpus_from_golds(sentences, [random_segmentation(rng, s) for s in sentences])
    assert _FitnessContext(corpus, SpanConfig(), "precision").evaluate_batch([]) == []


def _population(rng: random.Random, size: int) -> list[ScoringWeights]:
    """Weight sets as the tuner draws them, after the all-zero and the dep-only ones."""
    batch = [ScoringWeights(w_dep=0.0), ScoringWeights()]
    while len(batch) < size:
        batch.append(ScoringWeights(
            w_dep=rng.random(), w_count=rng.random(), w_balance=rng.random(),
            w_depth=rng.random(), w_cross=rng.random(),
            deprel_weights={d: rng.uniform(-1, 1) for d in DEPRELS},
        ))
    return batch


def _batched_equals_scalar(sentences, span, rng, metric="precision"):
    """Fitness of a default-sized population, batched (never the fallback) and scalar."""
    batch = _population(rng, EvoConfig().population)
    # half the gold comes from a genome's own optimum, so many spans match exactly
    golds = [
        segmentation_from_cuts(s, _optimal_cuts(_Structure(s, span), batch[k % len(batch)]))
        if k % 2 else random_segmentation(rng, s)
        for k, s in enumerate(sentences)
    ]
    context = _FitnessContext(corpus_from_golds(sentences, golds), span, metric)

    def refused(*args):
        raise AssertionError("the int64 guard sent the block to the scalar DP")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_FitnessContext, "_scalar_tallies", refused)
        got = context.evaluate_batch(batch)
    assert got == [_scalar_fitness(context, w) for w in batch]
    # one balance term per measure, up to the largest admissible one
    measures = {
        struct.hi[b] - struct.lo[a]
        for struct, _ in context.items
        for a in range(1, struct.n + 1)
        for b in range(a, max(a, struct.fit_end[a]) + 1)
    }
    assert len(context.distance) == max(measures) + 1
    assert all(context.distance[m] == abs(m - span.target_chars) for m in measures)
    return context


_LONG_SPANS = [
    SpanConfig(),
    SpanConfig(max_chars=10, target_chars=6),  # the longest forms stand alone
    SpanConfig(max_chars=6, target_chars=3, count_mode="words"),
]


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, count=st.integers(1, 4), span=st.sampled_from(_LONG_SPANS),
       metric=st.sampled_from(["precision", "f1"]))
def test_batched_fitness_equals_the_scalar_dp_on_long_sentences(seed, count, span, metric):
    rng = random.Random(seed)
    sentences = [random_sentence(rng, 60, 120, sent_id=f"l{k}") for k in range(count)]
    _batched_equals_scalar(sentences, span, rng, metric)


@pytest.mark.parametrize("span", _LONG_SPANS, ids=["chars45", "chars10", "words6"])
def test_batched_fitness_on_one_and_hundred_token_sentences_in_one_block(span):
    rng = random.Random(16)
    lengths = [1, 100, 1, 1, 100, 1, 100]
    sentences = [random_sentence(rng, n, n, sent_id=f"m{k}") for k, n in enumerate(lengths)]
    context = _batched_equals_scalar(sentences, span, rng, "f1")
    (block,) = context.blocks
    # the three long sentences run on alone after the first position
    assert block.running == [7] + [3] * 99
    assert block.measure.shape[1] > 1


@pytest.mark.parametrize("mode", ["characters", "words"])
def test_a_huge_span_indexes_no_measure_past_the_longest_sentence(mode):
    rng = random.Random(27)
    sentences = [random_sentence(rng, 5, 60, sent_id=f"h{k}") for k in range(5)]
    span = SpanConfig(max_chars=10**6, target_chars=10, count_mode=mode)
    context = _batched_equals_scalar(sentences, span, rng)
    # every segment fits, so the longest admissible measure is a whole sentence's
    assert len(context.distance) == max(text_measure(s.text, span) for s in sentences) + 1


def test_int64_guard_falls_back_to_the_scalar_dp(monkeypatch):
    rng = random.Random(4)
    sentences = [random_sentence(rng, 2, 20, sent_id=f"i{k}") for k in range(6)]
    corpus = corpus_from_golds(sentences, [random_segmentation(rng, s) for s in sentences])
    context = _FitnessContext(corpus, SpanConfig(max_chars=25, target_chars=10), "precision")
    batch = [ScoringWeights(w_dep=1e9, deprel_weights={d: rng.uniform(-1, 1) for d in DEPRELS})]
    expected = [_scalar_fitness(context, w) for w in batch]

    def refused(*args):
        raise AssertionError("the int64 guard let the batched DP run")

    monkeypatch.setattr(_Block, "tallies", refused)
    assert context.evaluate_batch(batch) == expected
