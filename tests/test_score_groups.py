"""The score table's per-sentence view against the per-span lookup it replaced.

``dataset_reference`` keeps the previous ``segment_by_scores`` and
``unmatched_rows``.  Over tables that mix a sentence's admissible spans with
keys no segmentation reads (other sentence ids, ``start <= 0``,
``end < start``, ends past the sentence or past the span budget) and
probabilities 0, 1 and subnormal, both must give the same spans and counts.
One table must serve any number of calls, spans and epsilons, and group its
rows once.
"""

import dataclasses
import fractions
import math
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import ScoreTable, SpanConfig, segment_by_scores, unmatched_rows
from rhesis._dp import scaled

import dataset_reference
from helpers import random_sentence
from test_index import _TIGHT, SEEDS, _reshaped

_PROBS = st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 0.25, 0.5]) | st.floats(0.0, 1.0)


class _CountingDict(dict):
    """A probability dict that counts how often it is walked."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


def _quiet(segment, sentence, table, span, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # oversized units
        return segment(sentence, table, span, epsilon=epsilon)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    seed=SEEDS,
    **_TIGHT,
    epsilon=st.sampled_from([0.01, 0.25, 0.5]),
)
def test_grouped_table_equals_the_per_span_lookup(data, seed, forms, span, epsilon):
    sent = _reshaped(seed, forms)
    n = len(sent)
    keys = st.tuples(
        st.sampled_from(["t", "t", "t", "u", ""]),
        st.integers(-1, n + 2),
        st.integers(-1, n + 3),
    )
    probs = data.draw(st.dictionaries(keys, _PROBS, max_size=3 * n + 6))
    table = ScoreTable(probabilities=probs)
    want = _quiet(dataset_reference.segment_by_scores, sent, table, span, epsilon)
    assert _quiet(segment_by_scores, sent, table, span, epsilon) == want
    other = random_sentence(random.Random(seed), 1, 4, sent_id="u")
    for sentences in ([sent], [other, sent], []):
        assert unmatched_rows(table, sentences) == dataset_reference.unmatched_rows(
            table, sentences
        )


# probabilities as a hand-built table may hold them: floats, ints and exact fractions
_ANY_PROBS = (
    _PROBS
    | st.sampled_from([0, 1])
    | st.fractions(0, 1)
    | st.builds(fractions.Fraction, st.integers(0, 1), st.integers(1, 10**400))
)


@settings(max_examples=300, deadline=None)
@given(
    probs=st.dictionaries(
        st.tuples(st.sampled_from(["t", "u", ""]), st.integers(-2, 6), st.integers(-2, 6)),
        _ANY_PROBS,
        max_size=30,
    )
)
def test_the_view_is_each_rows_scaled_log_probability(probs):
    # the per-row formula, written out here: the loaded and hand-built tables share
    # the builder, so comparing them cannot check it; keys with start <= 0 or
    # end < start, which no segmentation reads, are grouped all the same
    want = {}
    for (sid, a, b), p in probs.items():
        want.setdefault(sid, {}).setdefault(a, {})[b] = scaled(math.log(max(p, 1e-300)))
    assert ScoreTable(probabilities=probs)._rows() == want


def _corpus(seed: int, count: int = 25):
    rng = random.Random(seed)
    sentences = [random_sentence(rng, 1, 24, sent_id=f"s{k}") for k in range(count)]
    probs = {}
    for sent in sentences:
        n = len(sent)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                if rng.random() < 0.3:
                    probs[(sent.sent_id, a, b)] = rng.choice([0.0, 1.0, rng.random()])
        probs[(sent.sent_id, n, n + 2)] = 0.9  # past the end
    probs[("absent", 1, 2)] = 0.9
    return sentences, probs


_SPANS = [
    SpanConfig(max_chars=30, target_chars=20),
    SpanConfig(max_chars=3, target_chars=2, count_mode="words"),
]


def test_one_table_serves_every_sentence_span_and_epsilon():
    sentences, probs = _corpus(7)
    shared = ScoreTable(probabilities=probs)
    for span in _SPANS:
        for epsilon in (0.01, 0.4):
            for sent in sentences:
                fresh = ScoreTable(probabilities=dict(probs))
                got = _quiet(segment_by_scores, sent, shared, span, epsilon)
                assert got == _quiet(segment_by_scores, sent, fresh, span, epsilon)
                reference = dataset_reference.segment_by_scores
                assert got == _quiet(reference, sent, shared, span, epsilon)


def test_the_view_is_built_once_across_calls():
    sentences, probs = _corpus(11)
    counting = _CountingDict(probs)
    table = ScoreTable(probabilities=counting)
    for k in range(50):
        sent = sentences[k % len(sentences)]
        _quiet(segment_by_scores, sent, table, _SPANS[k % 2], (0.01, 0.4)[k // 25])
    assert counting.walks == 1
    assert unmatched_rows(table, sentences) == (1, len(sentences))
    assert counting.walks == 1


@pytest.mark.parametrize(
    "key", [("s", 1.0, 2), ("s", 1, 2.0), ("s", "1", 2), ("s", True, 2), ("s", 2, True)]
)
def test_a_key_that_is_not_int_fails_when_grouped(key):
    sentence = random_sentence(random.Random(1), 3, 3, sent_id="s")
    for read in (
        lambda table: segment_by_scores(sentence, table, SpanConfig()),
        lambda table: unmatched_rows(table, [sentence]),
    ):
        table = ScoreTable(probabilities={("s", 1, 1): 0.5, key: 0.9})
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            read(table)
    assert len(table) == 2  # building the table checks nothing


@pytest.mark.parametrize("p", ["0.5", None, 0.5j, True, False])
def test_a_probability_that_is_not_a_number_fails_when_grouped(p):
    sentence = random_sentence(random.Random(1), 3, 3, sent_id="s")
    key = ("s", 1, 2)
    for read in (
        lambda table: segment_by_scores(sentence, table, SpanConfig()),
        lambda table: unmatched_rows(table, [sentence]),
    ):
        table = ScoreTable(probabilities={("s", 1, 1): 0.5, key: p})
        with pytest.raises(
            ValueError, match=re.escape(f"score key {key!r}: probability {p!r} is not a number")
        ):
            read(table)
    assert len(table) == 2  # building the table checks nothing


class TestContract:
    def _used(self):
        sentences, probs = _corpus(3, count=4)
        table = ScoreTable(probabilities=_CountingDict(probs))
        for sent in sentences:
            segment_by_scores(sent, table, SpanConfig())
        return sentences, probs, table

    def test_a_used_table_equals_an_unused_one_and_reads_the_same(self):
        _, probs, used = self._used()
        unused = ScoreTable(probabilities=dict(probs))
        assert used == unused
        assert repr(used) == repr(unused) == f"ScoreTable(probabilities={probs!r})"
        assert len(used) == len(probs)
        for key, p in probs.items():
            assert used.get(*key) == p
        assert used.get("absent", 5, 6) is None
        assert used.get("absent", 5, 6, 0.5) == 0.5

    def test_replace_starts_a_fresh_view(self):
        sentences, probs, used = self._used()
        copy = dataclasses.replace(used)
        for sent in sentences:
            segment_by_scores(sent, copy, SpanConfig())
        assert used.probabilities.walks == 2
        flipped = {key: 1.0 - p for key, p in probs.items()}
        other = dataclasses.replace(used, probabilities=flipped)
        for sent in sentences:
            assert segment_by_scores(sent, other, SpanConfig()) == segment_by_scores(
                sent, ScoreTable(probabilities=dict(flipped)), SpanConfig()
            )
