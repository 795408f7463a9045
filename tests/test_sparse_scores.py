"""The scores DP's sparse loop on long sentences, and the probabilities a table refuses.

``dataset_reference.segment_by_scores`` builds a dense row for every start
and runs ``dp_reference.best_cuts``; the segmenter slides a window over the
ends without a row instead.  On seeded 60-120-token sentences, in both count
modes, the two must agree for a table shaped like the benchmark's (gold
near misses, one row in ten dropped) and for tables that score every, or
about half, of the admissible spans 0.0.  There the window's best end has a
row below ``epsilon`` at every start, so each start's ends are scanned.
"""

import math
import random
import re
import warnings

import pytest

from rhesis import ScoreTable, ScoringWeights, export_candidates, segment_best
from rhesis import SpanConfig, segment_by_scores, unmatched_rows
from rhesis.span import fits_span

import dataset_reference
from helpers import corpus_from_golds, random_sentence
from test_index import _LONG_SPANS


def _near_misses(rng, sentences, span):
    """Gold units and their one-boundary near misses, one row in ten left out."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # oversized units
        golds = [segment_best(s, ScoringWeights(), span) for s in sentences]
    examples = export_candidates(corpus_from_golds(sentences, golds), 4, rng.randrange(99), span)
    return {
        (ex.sentence_id, ex.start, ex.end): (0.55 if ex.label else 0.05) + 0.4 * rng.random()
        for ex in examples
        if rng.random() >= 0.1
    }


def _zeros(rng, sentences, span, share):
    """About ``share`` of every sentence's admissible spans, each scored 0.0."""
    probs = {}
    for s in sentences:
        for a in range(1, len(s) + 1):
            for b in range(a, len(s) + 1):
                if a < b and not fits_span(s.span_text(a, b), span):
                    break
                if rng.random() < share:
                    probs[(s.sent_id, a, b)] = 0.0
    return probs


_TABLES = {
    "near_misses": _near_misses,
    "all_zero": lambda rng, sentences, span: _zeros(rng, sentences, span, 1.0),
    "half_zero": lambda rng, sentences, span: _zeros(rng, sentences, span, 0.5),
}


@pytest.mark.parametrize("span", _LONG_SPANS, ids=["chars45", "chars10", "words6"])
@pytest.mark.parametrize("kind", list(_TABLES))
def test_long_sentences_equal_the_dense_reference(kind, span):
    for seed in range(3):
        rng = random.Random(seed)
        sentences = [random_sentence(rng, 60, 120, sent_id=f"l{k}") for k in range(3)]
        table = ScoreTable(probabilities=_TABLES[kind](rng, sentences, span))
        for sent in sentences:
            for epsilon in (0.01, 0.3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # oversized units
                    got = segment_by_scores(sent, table, span, epsilon)
                    want = dataset_reference.segment_by_scores(sent, table, span, epsilon)
                assert got == want


@pytest.mark.parametrize("p", [math.nan, math.inf, 2.0, -0.5], ids=["nan", "inf", "2", "-0.5"])
def test_a_probability_outside_the_unit_interval_fails_when_grouped(p):
    sentence = random_sentence(random.Random(1), 3, 3, sent_id="s")
    key = ("s", 1, 2)
    for read in (
        lambda table: segment_by_scores(sentence, table, SpanConfig()),
        lambda table: unmatched_rows(table, [sentence]),
    ):
        table = ScoreTable(probabilities={("s", 1, 1): 0.5, key: p})
        with pytest.raises(ValueError, match=re.escape(f"score key {key!r}: probability {p}")):
            read(table)
