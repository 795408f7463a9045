"""The tree DP on float terms: exact below 2^52, and used only there.

``_optimal_cuts`` hands ``best_measured_cuts`` a float balance table when
``n * (largest balance term + cut_bound) < 2^52``, where ``cut_bound`` is
``(w_dep + (w_depth + w_cross) * n + w_count) * SCALE``.  Below that bound
every sum the DP forms is an integer a double holds exactly, so the cuts
must equal those of the int terms; past it the terms stay ints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import ScoringWeights, SpanConfig, enumerate_all, segmentation_score
from rhesis import scoring
from rhesis._dp import SCALE, best_measured_cuts
from rhesis.scoring import _balance_table, _optimal_cuts, _Structure

import scoring_reference
from helpers import random_sentence


@st.composite
def _measured_terms(draw):
    """Offsets, a table and cut terms, each term below 2^52 / (2n) in size."""
    n = draw(st.integers(1, 30))
    widths = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=n, max_size=n))
    hi, lo, end = [0], [0], 0
    for width, gap in widths:
        lo.append(end + gap)
        end += gap + width
        hi.append(end)
    bound = 2**52 // (2 * n) - 1
    # a few coarse values force ties; the rest are spread over the whole range
    term = st.integers(-3, 3).map(lambda k: k * (bound // 3)) | st.integers(-bound, bound)
    top = draw(st.integers(0, end))
    table = draw(st.lists(term, min_size=top + 1, max_size=top + 1))
    cut_terms = draw(st.lists(term, min_size=n - 1, max_size=n - 1))
    return hi, lo, table, cut_terms


@settings(max_examples=400, deadline=None)
@given(case=_measured_terms())
def test_float_images_of_the_terms_give_the_same_cuts(case):
    hi, lo, table, cut_terms = case
    want = best_measured_cuts(hi, lo, table, cut_terms)
    floats = [float(t) for t in table]
    assert best_measured_cuts(hi, lo, floats, [float(t) for t in cut_terms]) == want
    assert best_measured_cuts(hi, lo, floats, cut_terms) == want  # as _optimal_cuts mixes them


_SPANS = [SpanConfig(max_chars=20, target_chars=12), SpanConfig(max_chars=45, target_chars=32)]


def _top(struct: _Structure) -> int:
    return min(struct.max_units, struct.hi[struct.n] - struct.lo[1])


def _at_the_bound(struct: _Structure, step: float) -> ScoringWeights:
    """Weights whose guard total is ``step * n * SCALE`` away from 2^52."""
    n = struct.n
    w_balance, w_depth, w_cross, w_count = 0.5, 0.25, 0.5, 3.0
    balance = w_balance * max(struct.target, _top(struct) - struct.target)
    w_dep = 2**52 / SCALE / n - balance - (w_depth + w_cross) * n - w_count + step
    return ScoringWeights(
        w_dep=w_dep, w_count=w_count, w_balance=w_balance, w_depth=w_depth, w_cross=w_cross,
        deprel_weights={"nsubj": 1.0, "obj": -1.0, "det": -0.5, "conj": 0.7},
    )


def _sides(sent, span):
    """(the term type the DP must get, the index, weights) just inside and just past the bound."""
    index = _Structure(sent, span)
    for step, kind in ((-0.01, float), (0.01, int)):
        yield kind, index, _at_the_bound(index, step)


@pytest.mark.parametrize("span", _SPANS, ids=["20-12", "45-32"])
def test_weights_on_either_side_of_the_bound_equal_the_reference(span):
    for seed in range(40):
        sent = random_sentence(random.Random(seed), 2, 40)
        for _, index, w in _sides(sent, span):
            reference = scoring_reference._Structure(sent, span)
            assert _optimal_cuts(index, w) == scoring_reference._optimal_cuts(reference, w)


@pytest.mark.parametrize("span", _SPANS, ids=["20-12", "45-32"])
def test_weights_on_either_side_of_the_bound_equal_the_first_maximum(span):
    for seed in range(40):
        sent = random_sentence(random.Random(seed), 2, 12)
        for _, index, w in _sides(sent, span):
            # the totals stay below 2^53, so segmentation_score is exact; max keeps the first
            best = max(enumerate_all(sent, span), key=lambda s: segmentation_score(sent, s, w, span))
            assert _optimal_cuts(index, w) == best.cuts()


def test_the_dp_gets_floats_only_inside_the_bound(monkeypatch):
    seen = []

    def spy(hi, lo, terms, cut_terms):
        seen.append({type(t) for t in terms})
        return best_measured_cuts(hi, lo, terms, cut_terms)

    monkeypatch.setattr(scoring, "best_measured_cuts", spy)
    for seed in range(10):
        sent = random_sentence(random.Random(seed), 2, 40)
        for span in _SPANS:
            for kind, index, w in _sides(sent, span):
                _optimal_cuts(index, w)
                assert seen.pop() == {kind}
                # the cached table keeps its int entries
                table = _balance_table(w.w_balance, index.target, _top(index))
                assert {type(t) for t in table} == {int}
    assert not seen
