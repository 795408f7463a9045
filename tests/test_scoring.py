"""Tests for cut candidates, the scored-tree segmenter, and its oracle."""

import json
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    CascadeConfig,
    CutCandidate,
    FormatError,
    OversizedTokenWarning,
    ScoreTable,
    ScoringWeights,
    Sentence,
    SpanConfig,
    Token,
    cascade_segment,
    crossing_edges,
    cut_score,
    enumerate_all,
    segment_best,
    segment_by_scores,
    segmentation_score,
    read_weights,
    weights_from_json,
    weights_to_json,
)
from rhesis.scoring import _Structure
from rhesis.span import text_measure

from helpers import DEPRELS, random_sentence


def _chain(heads, forms=None, deprel="dep"):
    n = len(heads)
    forms = forms or [f"w{i}" for i in range(1, n + 1)]
    toks = [
        Token(index=i, form=forms[i - 1], upos="X", head=h,
              deprel="root" if h == 0 else deprel)
        for i, h in enumerate(heads, start=1)
    ]
    return Sentence.from_tokens("t", toks)


WIDE = SpanConfig(max_chars=999, target_chars=500)


class TestCrossingEdges:
    def test_three_token_chain(self):
        sent = _chain([2, 0, 2])
        cand = crossing_edges(sent, 1)
        assert {(h, d) for h, d, _ in cand.crossing} == {(2, 1)}
        assert cand.depth == 1
        cand = crossing_edges(sent, 2)
        assert {(h, d) for h, d, _ in cand.crossing} == {(2, 3)}
        assert cand.depth == 1

    def test_star_leftmost_dependent_is_primary(self):
        sent = _chain([0, 1, 1, 1, 1])
        cand = crossing_edges(sent, 3)
        assert {(h, d) for h, d, _ in cand.crossing} == {(1, 4), (1, 5)}
        assert cand.primary_edge[:2] == (1, 4)
        assert cand.depth == 1

    def test_shallowest_edge_is_primary(self):
        # (1,4) at depth 1 beats (2,5) at depth 2 across position 3
        sent = _chain([0, 1, 2, 1, 2])
        cand = crossing_edges(sent, 3)
        assert {(h, d) for h, d, _ in cand.crossing} == {(1, 4), (2, 5)}
        assert cand.primary_edge[:2] == (1, 4)
        assert cand.depth == 1

    def test_depth_tie_prefers_leftmost_head(self):
        # (2,5) and (3,6) both cross position 4 at depth 2
        sent = _chain([0, 1, 1, 1, 2, 3])
        cand = crossing_edges(sent, 4)
        assert {(h, d) for h, d, _ in cand.crossing} == {(2, 5), (3, 6)}
        assert cand.primary_edge[:2] == (2, 5)
        assert cand.depth == 2

    def test_root_arc_is_not_an_edge(self):
        sent = _chain([0, 1])
        cand = crossing_edges(sent, 1)
        assert {(h, d) for h, d, _ in cand.crossing} == {(1, 2)}

    def test_position_bounds(self):
        sent = _chain([0, 1])
        with pytest.raises(ValueError):
            crossing_edges(sent, 0)
        with pytest.raises(ValueError):
            crossing_edges(sent, 2)


class TestCutScore:
    def test_all_zero_weights(self):
        cand = CutCandidate(position=1, crossing=((2, 1, "det"),),
                            primary_edge=(2, 1, "det"), depth=1)
        assert cut_score(cand, ScoringWeights(w_dep=0.0)) == 0.0

    def test_single_term(self):
        cand = CutCandidate(position=1, crossing=((2, 1, "conj"),),
                            primary_edge=(2, 1, "conj"), depth=1)
        w = ScoringWeights(w_dep=1.0, deprel_weights={"conj": 0.9})
        assert cut_score(cand, w) == pytest.approx(0.9)

    def test_full_formula(self):
        cand = CutCandidate(
            position=5,
            crossing=((9, 4, "obl"), (9, 5, "punct"), (10, 6, "case")),
            primary_edge=(9, 4, "obl"),
            depth=2,
        )
        w = ScoringWeights(w_dep=1.0, w_depth=0.1, w_cross=0.2, w_count=0.3,
                           deprel_weights={"obl": 0.5})
        assert cut_score(cand, w) == pytest.approx(0.5 - 0.2 - 0.4 - 0.3)

    def test_unknown_label_uses_default(self):
        cand = CutCandidate(position=1, crossing=((2, 1, "weird"),),
                            primary_edge=(2, 1, "weird"), depth=1)
        w = ScoringWeights(w_dep=1.0, deprel_weights={"conj": 0.9},
                           default_deprel_weight=-0.25)
        assert cut_score(cand, w) == pytest.approx(-0.25)


class TestScoringWeightsValidation:
    def test_scalars_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ScoringWeights(w_count=-0.1)

    def test_table_range(self):
        with pytest.raises(ValueError):
            ScoringWeights(deprel_weights={"conj": 1.5})
        with pytest.raises(ValueError):
            ScoringWeights(default_deprel_weight=-2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ScoringWeights(w_dep=float("nan"))

    def test_lookup(self):
        w = ScoringWeights(deprel_weights={"conj": 0.9}, default_deprel_weight=0.1)
        assert w.lookup("conj") == 0.9
        assert w.lookup("else") == 0.1


class TestEnumerateAll:
    def test_three_tokens_generous_span(self):
        segs = enumerate_all(_chain([0, 1, 1]), WIDE)
        assert len(segs) == 4
        assert [s.cuts() for s in segs] == [(), (1,), (2,), (1, 2)]

    def test_single_token(self):
        segs = enumerate_all(_chain([0]), WIDE)
        assert len(segs) == 1
        assert segs[0].spans() == ((1, 1),)

    def test_cap_refusal(self):
        heads = [0] + [1] * 16  # 17 tokens
        with pytest.raises(ValueError, match="cap"):
            enumerate_all(_chain(heads), WIDE)
        assert len(enumerate_all(_chain(heads), WIDE, cap=17)) == 2 ** 16

    def test_infeasible_pieces_filtered(self):
        sent = _chain([0, 1, 1], forms=["aaaa", "bb", "cc"])
        segs = enumerate_all(sent, SpanConfig(max_chars=7, target_chars=5))
        # whole "aaaa bb cc" (10) is out; both 2-piece splits fit; so does 3
        assert [s.cuts() for s in segs] == [(1,), (2,), (1, 2)]


class TestSegmentBest:
    def test_count_penalty_keeps_sentence_whole(self):
        sent = _chain([0, 1, 1, 1])
        w = ScoringWeights(w_dep=1.0, w_count=5.0,
                           deprel_weights=dict.fromkeys(DEPRELS, 1.0))
        assert segment_best(sent, w, WIDE).spans() == ((1, 4),)

    def test_zero_weights_tie_prefers_fewest_then_earliest(self):
        sent = _chain([0, 1, 1], forms=["aaaa", "bb", "cc"])
        span = SpanConfig(max_chars=7, target_chars=5)
        seg = segment_best(sent, ScoringWeights(w_dep=0.0), span)
        assert seg.spans() == ((1, 1), (2, 3))  # cut (1,) beats (2,)

    def test_positive_weight_pulls_the_cut(self):
        sent = _chain([0, 1, 1], forms=["aaaa", "bb", "cc"], deprel="conj")
        span = SpanConfig(max_chars=7, target_chars=5)
        # both single cuts sever one conj edge; balance separates them
        w = ScoringWeights(w_dep=1.0, w_balance=0.25,
                           deprel_weights={"conj": 0.5})
        seg = segment_best(sent, w, span)
        # |4-5|+|5-5| = 1 for cut 1; |7-5|+|2-5| = 5 for cut 2
        assert seg.cuts() == (1,)

    def test_oversized_token_isolated_with_warning(self):
        sent = _chain([0, 1, 1], forms=["x" * 60, "bb", "cc"])
        with pytest.warns(OversizedTokenWarning):
            seg = segment_best(sent, ScoringWeights(), SpanConfig())
        assert seg.spans()[0] == (1, 1)
        for (a, b), r in zip(seg.spans(), seg.rhesis):
            assert a == b or len(r.text) <= 45

    def test_balance_term_in_score(self):
        sent = _chain([0, 1], forms=["abcd", "efg"])
        w = ScoringWeights(w_dep=0.0, w_balance=1.0)
        span = SpanConfig(max_chars=45, target_chars=6)
        seg = segment_best(sent, w, span)
        # whole "abcd efg" is 8 chars: deviation 2; split costs |4-6|+|3-6| = 5
        assert seg.spans() == ((1, 2),)
        assert segmentation_score(sent, seg, w, span) == pytest.approx(-2.0)


class TestOracleAgreement:
    def test_matches_brute_force_on_random_sentences(self):
        rng = random.Random(20318)
        for _ in range(120):
            sent = random_sentence(rng, 3, 9)
            table = {d: rng.randrange(-64, 65) / 64 for d in DEPRELS}
            w = ScoringWeights(
                w_dep=rng.randrange(0, 5) / 4,
                w_count=rng.randrange(0, 3) / 8,
                w_balance=rng.randrange(0, 3) / 16,
                w_depth=rng.randrange(0, 3) / 8,
                w_cross=rng.randrange(0, 3) / 8,
                deprel_weights=table,
            )
            span = SpanConfig(max_chars=rng.choice([12, 20, 45]), target_chars=10)
            best, best_score = None, None
            for cand in enumerate_all(sent, span):
                score = segmentation_score(sent, cand, w, span)
                if best_score is None or score > best_score:
                    best, best_score = cand, score
            got = segment_best(sent, w, span)
            assert segmentation_score(sent, got, w, span) == best_score
            assert got.spans() == best.spans()

    def test_deprel_shift_leaves_fixed_count_argmax_invariant(self):
        rng = random.Random(77077)
        shift = 0.5
        for _ in range(100):
            sent = random_sentence(rng, 3, 9)
            base = {d: -rng.randrange(0, 33) / 64 for d in DEPRELS}
            shifted = {d: v + shift for d, v in base.items()}
            w1 = ScoringWeights(w_dep=1.0, w_balance=0.125, deprel_weights=base)
            w2 = ScoringWeights(w_dep=1.0, w_balance=0.125, deprel_weights=shifted)
            span = SpanConfig(max_chars=30, target_chars=15)
            by_count: dict[int, list] = {}
            for cand in enumerate_all(sent, span):
                by_count.setdefault(len(cand.rhesis), []).append(cand)
            for group in by_count.values():
                pick1 = max(group, key=lambda s: segmentation_score(sent, s, w1, span))
                pick2 = max(group, key=lambda s: segmentation_score(sent, s, w2, span))
                assert pick1.spans() == pick2.spans()


class TestWeightsJson:
    def test_round_trip(self):
        w = ScoringWeights(w_dep=0.75, w_count=0.125, w_balance=0.0625,
                           w_depth=0.5, w_cross=0.25,
                           deprel_weights={"conj": 0.9, "det": -0.5},
                           default_deprel_weight=0.1)
        again = weights_from_json(weights_to_json(w))
        assert again == w

    def test_serialization_is_stable(self):
        w = ScoringWeights(deprel_weights={"b": 0.1, "a": 0.2})
        assert weights_to_json(w) == weights_to_json(w)
        payload = json.loads(weights_to_json(w))
        assert list(payload["deprel_weights"]) == ["a", "b"]

    def test_unknown_field_rejected(self):
        with pytest.raises(FormatError, match="unknown"):
            weights_from_json('{"w_dep": 1.0, "bogus": 3}')

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError, match="JSON"):
            weights_from_json("{not json")
        with pytest.raises(FormatError):
            weights_from_json("[1, 2]")

    def test_out_of_range_values_rejected(self):
        with pytest.raises(FormatError):
            weights_from_json('{"w_dep": -1.0}')
        with pytest.raises(FormatError):
            weights_from_json('{"deprel_weights": {"conj": 7.0}}')

    def test_a_weight_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_bytes(b"\xef\xbb\xbf" + weights_to_json(ScoringWeights(w_count=0.5)).encode())
        assert read_weights(path) == ScoringWeights(w_count=0.5)

    @pytest.mark.parametrize("table", ['[]', '["conj", 0.5]', '"conj"'])
    def test_deprel_table_that_is_not_an_object_rejected(self, table):
        with pytest.raises(FormatError, match="deprel_weights must be a mapping"):
            weights_from_json(f'{{"deprel_weights": {table}}}')
        with pytest.raises(TypeError, match="deprel_weights must be a mapping"):
            ScoringWeights(deprel_weights=json.loads(table))


def test_segmentation_score_is_order_independent():
    # summing per-cut and per-segment terms on an integer grid: permuting
    # evaluation order can never change the total
    rng = random.Random(31337)
    sent = random_sentence(rng, 8, 12)
    w = ScoringWeights(w_dep=1.0, w_balance=0.3, w_count=0.7,
                       deprel_weights={d: rng.uniform(-1, 1) for d in DEPRELS})
    span = SpanConfig(max_chars=25, target_chars=12)
    scores = {
        seg.spans(): segmentation_score(sent, seg, w, span)
        for seg in enumerate_all(sent, span)
    }
    for spans, score in scores.items():
        assert math.isfinite(score)
        assert scores[spans] == score


class TestWordsMode:
    def test_form_with_spaces_counts_all_its_words(self):
        sent = _chain([0, 1, 2], forms=["à peu près", "x", "y"])
        span = SpanConfig(max_chars=3, target_chars=2, count_mode="words")
        seg = segment_best(sent, ScoringWeights(), span)
        assert [r.text for r in seg.rhesis] == ["à peu près", "x y"]

    def test_balance_is_measured_in_words(self):
        sent = _chain([0, 1, 2, 3, 4, 5], forms=["mot"] * 6)
        span = SpanConfig(max_chars=6, target_chars=3, count_mode="words")
        w = ScoringWeights(w_balance=1.0)
        seg = segment_best(sent, w, span)
        assert seg.spans() == ((1, 3), (4, 6))
        assert segmentation_score(sent, seg, w, span) == 0.0

    @pytest.mark.filterwarnings("ignore::rhesis.errors.OversizedTokenWarning")
    def test_matches_brute_force_with_spaced_forms(self):
        rng = random.Random(4417)
        forms = ["a", "bb", "c d", " e", "f ", "g h i", " j"]
        for _ in range(80):
            n = rng.randint(2, 8)
            sent = _chain([0] + list(range(1, n)), forms=[rng.choice(forms) for _ in range(n)])
            w = ScoringWeights(w_dep=rng.randrange(0, 3) / 4,
                               w_count=rng.randrange(0, 3) / 8,
                               w_balance=rng.randrange(1, 4) / 8)
            span = SpanConfig(max_chars=rng.choice([2, 3, 5]), target_chars=2,
                              count_mode="words")
            best = max(enumerate_all(sent, span),
                       key=lambda s: segmentation_score(sent, s, w, span))
            got = segment_best(sent, w, span)
            assert got.spans() == best.spans()


_FORMS = st.text(alphabet="ab  ", min_size=1, max_size=5).filter(str.strip)


@settings(max_examples=300, deadline=None)
@given(
    forms=st.lists(st.tuples(_FORMS, st.booleans()), min_size=1, max_size=7),
    mode=st.sampled_from(["characters", "words"]),
    data=st.data(),
)
def test_structure_measure_equals_text_measure(forms, mode, data):
    toks = [
        Token(index=i, form=form, upos="X", head=i - 1, deprel="root" if i == 1 else "dep",
              misc="" if space else "SpaceAfter=No")
        for i, (form, space) in enumerate(forms, start=1)
    ]
    sent = Sentence.from_tokens("h", toks)
    span = SpanConfig(max_chars=5, target_chars=3, count_mode=mode)
    struct = _Structure(sent, span)
    a = data.draw(st.integers(1, len(toks)))
    b = data.draw(st.integers(a, len(toks)))
    assert struct.measure(a, b) == text_measure(sent.span_text(a, b), span)


_SEGMENTERS = {
    "tree": lambda sent, span: segment_best(sent, ScoringWeights(), span),
    "scores": lambda sent, span: segment_by_scores(sent, ScoreTable({}), span),
}


@pytest.mark.parametrize(
    "segment",
    [
        lambda sent, span: cascade_segment(sent, CascadeConfig(span=span)),
        *_SEGMENTERS.values(),
    ],
    ids=["cascade", *_SEGMENTERS],
)
def test_oversized_warnings_name_the_caller_in_order(segment):
    # no punctuation, clause or preposition level applies, so the cascade
    # reaches each oversized token one level below the whole sentence
    forms = ["Il", "dit", "x" * 60, "puis", "y" * 50, "."]
    sent = _chain([0, 1, 2, 3, 4, 5], forms=forms)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        segment(sent, SpanConfig())
    oversized = [w for w in caught if issubclass(w.category, OversizedTokenWarning)]
    assert [w.filename for w in oversized] == [__file__, __file__]
    assert repr(forms[2]) in str(oversized[0].message)
    assert repr(forms[4]) in str(oversized[1].message)


@pytest.mark.parametrize(
    "span",
    [
        SpanConfig(max_chars=8, target_chars=4),
        SpanConfig(max_chars=1, target_chars=1, count_mode="words"),
    ],
    ids=["characters", "words"],
)
def test_every_segmenter_warns_the_same_texts_in_order(span):
    forms = ["Il", "dit", "x" * 12, "a b", "puis", "y" * 9, "z" * 10, "."]
    sent = _chain([0, 1, 2, 3, 4, 5, 6, 7], forms=forms)
    texts = []
    for segment in (
        lambda sent, span: cascade_segment(sent, CascadeConfig(span=span)),
        *_SEGMENTERS.values(),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            segment(sent, span)
        texts.append(
            [str(w.message) for w in caught if issubclass(w.category, OversizedTokenWarning)]
        )
    assert texts == [texts[0]] * 3
    assert texts[0] == [
        f"sentence 't': {form!r} exceeds the span and cannot be split further"
        for form in forms
        if text_measure(form, span) > span.max_chars
    ]
    assert len(texts[0]) == (3 if span.count_mode == "characters" else 1)


@pytest.mark.parametrize("method", sorted(_SEGMENTERS))
@pytest.mark.parametrize(
    "first, span, warns",
    [
        ("x" * 60, SpanConfig(), True),
        ("a b c d", SpanConfig(max_chars=3, target_chars=2, count_mode="words"), True),
        # one 60-character word fits a 3-word budget: the warning counts in words
        ("x" * 60, SpanConfig(max_chars=3, target_chars=2, count_mode="words"), False),
    ],
    ids=["characters", "words-spaced-form", "words-long-word"],
)
def test_oversized_unit_warning_counts_in_the_span_unit(method, first, span, warns):
    sent = _chain([0, 1, 1], forms=[first, "bb", "cc"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seg = _SEGMENTERS[method](sent, span)
    oversized = [w for w in caught if issubclass(w.category, OversizedTokenWarning)]
    assert len(oversized) == warns
    if warns:
        assert repr(first) in str(oversized[0].message)
        assert seg.spans()[0] == (1, 1)
    for (a, b), r in zip(seg.spans(), seg.rhesis):
        assert a == b or text_measure(r.text, span) <= span.max_chars
