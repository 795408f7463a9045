"""The tree DP's terms read straight from the index: each segment's balance
term off the offsets where the DP uses it, one shared balance table per
weight set and span, and one dict lookup per cut.

``scoring_reference`` keeps the rows mapped through ``measure_rows`` and the
cut score read from a full ``CutCandidate``; the current ``_optimal_cuts``
and ``_cut_terms`` must agree with it, whatever the cache holds from
earlier calls, on short sentences of any forms and on 60-120-token ones
with an oversized form.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import ScoringWeights, Sentence, SpanConfig, segment_best
from rhesis import scoring
from rhesis._dp import scaled
from rhesis.scoring import _balance_table, _cut_terms, _optimal_cuts, _Structure
from rhesis.span import text_measure

import scoring_reference
from helpers import DEPRELS, random_sentence

# Spaced forms and forms longer than most spans; never blank.
_FORMS = st.text(alphabet="ab  ", min_size=1, max_size=5).filter(str.strip) | st.just("abcdefghij")
_WEIGHT = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 3)


def _sentence(seed: int, forms) -> Sentence:
    sent = random_sentence(random.Random(seed), len(forms), len(forms), sent_id="t")
    toks = [
        dataclasses.replace(tok, form=form, misc="" if space else "SpaceAfter=No")
        for tok, (form, space) in zip(sent.tokens, forms)
    ]
    return Sentence.from_tokens("t", toks)


def _agrees(sent: Sentence, span: SpanConfig, w: ScoringWeights) -> None:
    index = _Structure(sent, span)
    reference = scoring_reference._Structure(sent, span)
    assert _cut_terms(index, w) == [
        scaled(scoring_reference.cut_score(c, w)) for c in reference.candidates
    ]
    assert _optimal_cuts(index, w) == scoring_reference._optimal_cuts(reference, w)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    forms=st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=12),
    mode=st.sampled_from(["characters", "words"]),
    max_units=st.integers(1, 12) | st.just(1000),  # 1000: above every sentence's measure
    targets=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    balances=st.lists(_WEIGHT, min_size=1, max_size=3),
    w=st.builds(
        ScoringWeights,
        w_dep=_WEIGHT,
        w_count=_WEIGHT,
        w_depth=_WEIGHT,
        w_cross=_WEIGHT,
        deprel_weights=st.dictionaries(
            st.sampled_from(DEPRELS), st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1, 1)
        ),
        default_deprel_weight=st.sampled_from([-1.0, 0.0, 0.5]),
    ),
)
def test_terms_equal_the_reference_across_weight_sets_and_spans(
    seed, forms, mode, max_units, targets, balances, w
):
    sent = _sentence(seed, forms)
    # weight sets that differ only in w_balance, and spans that differ only in
    # target_chars or max_chars, alternated in one process: a table cached for
    # one key never serves another
    spans = [
        SpanConfig(max_chars=cap, target_chars=min(t, cap), count_mode=mode)
        for t in targets
        for cap in (max_units, max_units + 3)
    ]
    for _ in range(2):
        for span in spans:
            for balance in balances:
                _agrees(sent, span, dataclasses.replace(w, w_balance=balance))


# The benchmark's tree weights (bench/inputs.py), and a set under which every
# segmentation ties, so only the segment count and the cut order decide.
_LONG_BAND_WEIGHTS = [
    ScoringWeights(
        w_dep=1.0, w_count=0.1, w_balance=0.05, w_depth=0.02, w_cross=0.01,
        deprel_weights={"conj": 0.9, "advcl": 0.8, "det": -0.8, "acl:relcl": 0.35},
    ),
    ScoringWeights(w_dep=0.0),
]
# 54 characters and 5 words: oversized under 45 and 20 characters
_OVERSIZED = " ".join(["abcdefghij"] * 5)


@pytest.mark.parametrize("mode", ["characters", "words"])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_long_sentences_with_an_oversized_form_equal_the_reference(mode, where):
    for seed in range(4):
        sent = random_sentence(random.Random(seed), 60, 120, sent_id="t")
        k = {"start": 1, "middle": len(sent) // 2, "end": len(sent)}[where]
        toks = list(sent.tokens)
        toks[k - 1] = dataclasses.replace(toks[k - 1], form=_OVERSIZED)
        sent = Sentence.from_tokens("t", toks)
        below = text_measure(_OVERSIZED, SpanConfig(count_mode=mode)) - 1
        for cap, target in ((45, 32), (20, 12), (below, max(1, below // 2))):
            span = SpanConfig(max_chars=cap, target_chars=target, count_mode=mode)
            index = _Structure(sent, span)
            if cap == below:
                assert index.measure(k, k) > cap
            for w in _LONG_BAND_WEIGHTS:
                _agrees(sent, span, w)


def test_a_huge_span_builds_no_table_longer_than_the_sentence(monkeypatch):
    lengths = []

    def spy(*key):
        table = _balance_table(*key)
        lengths.append(len(table))
        return table

    monkeypatch.setattr(scoring, "_balance_table", spy)
    w = ScoringWeights(w_balance=0.05)
    for seed in range(20):
        sent = random_sentence(random.Random(seed), 2, 40)
        for mode in ("characters", "words"):
            for cap in (10**7, 45):
                span = SpanConfig(max_chars=cap, target_chars=32, count_mode=mode)
                segment_best(sent, w, span)
                total = text_measure(sent.text, span)
                assert lengths.pop() == min(cap, total) + 1
    assert not lengths


def test_the_table_cache_is_bounded_and_keeps_keys_apart():
    maxsize = _balance_table.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0
    # the scalar tuner calls _optimal_cuts once per genome: many weight sets
    for k in range(3 * maxsize):
        _balance_table(k / 7, 32, 45)
    assert _balance_table.cache_info().currsize <= maxsize
    # an int weight and an equal float give different exact products here
    for balance in (3**33, float(3**33), 0.05, 0.0):
        for target, top in ((1, 4), (4, 1), (32, 45)):
            assert _balance_table(balance, target, top) == tuple(
                scaled(-balance * abs(m - target)) for m in range(top + 1)
            )
    assert _balance_table(3**33, 1, 4) != _balance_table(float(3**33), 1, 4)

