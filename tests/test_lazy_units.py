"""A segmentation records its sentence and each unit's last token; its
``Rhesis`` units are built on the first read of ``rhesis``.

Every producer's segmentation has the oracle's units: the sentence id, and
each span's bounds and its text sliced from the sentence.  It equals the same
producer's segmentation of a separately built, equal sentence, both ways,
with one ``hash`` and ``repr``, before and after units are read (lazy, then
eager), and keeps the same bounds throughout.  ``copy``, ``deepcopy`` and
``pickle`` give an equal segmentation.  The paths that need only bounds or
texts (the cascade pair, both DPs, gold alignment, the report,
``length_stats`` and the renderers) build no unit at all.
"""

import copy
import dataclasses
import pickle
import random
import warnings
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhesis.corpus
from rhesis import (
    CascadeConfig,
    ScoreTable,
    ScoringWeights,
    Segmentation,
    Sentence,
    SpanConfig,
    Token,
    align_gold,
    cascade_segment,
    document_report,
    length_stats,
    parse_conllu,
    parse_gold,
    regroup,
    render_html,
    render_records,
    render_text,
    segment_best,
    segment_by_scores,
    segmentation_from_cuts,
    segmentation_from_spans,
)
from rhesis.cli import _warn_unscored
from rhesis.render import RenderOptions

from helpers import DEPRELS, UPOS, random_sentence

SPACING = Sentence.from_tokens("sp", [
    Token(1, "Il", "PRON", 2, "nsubj"),
    Token(2, "dort", "VERB", 0, "root", "SpaceAfter=No"),
    Token(3, ",", "PUNCT", 2, "punct"),
    Token(4, "l'", "DET", 5, "det", "SpaceAfter=No"),
    Token(5, "ami", "NOUN", 2, "obj", "SpaceAfter=No"),
    Token(6, ".", "PUNCT", 2, "punct"),
])


def _bounds(seg: Segmentation):
    return seg.spans(), seg.cuts(), seg.token_count


def _oracle(sentence: Sentence, spans):
    """The sentence id and each span's ``(start, end, text)``, sliced from the sentence."""
    return sentence.sent_id, [(a, b, sentence.span_text(a, b)) for a, b in spans]


def _assert_one_segmentation(seg: Segmentation, twin: Segmentation, sentence: Sentence, spans):
    """``seg`` has the oracle's units for ``spans`` and equals ``twin``, the same
    producer's segmentation of an equal sentence, before and after either's units."""
    assert seg._sentence is not twin._sentence
    before = _bounds(seg)
    assert before[0] == tuple(spans)
    assert _bounds(twin) == before
    assert seg == twin and twin == seg
    assert hash(seg) == hash(twin)
    assert twin.rhesis  # eager twin, lazy seg
    assert seg == twin and twin == seg
    assert hash(seg) == hash(twin)
    assert repr(seg) == repr(twin)
    units = [(r.start, r.end, r.text) for r in seg.rhesis]
    assert (seg.sentence_id, units) == _oracle(sentence, spans)
    assert _bounds(seg) == before and _bounds(twin) == before


# --- copy, deepcopy, pickle and assignment


_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda seg: pickle.loads(pickle.dumps(seg)),
}


def _segmentation(cuts, kind: str) -> Segmentation:
    """A segmentation of ``SPACING`` whose units were read (eager) or not (lazy)."""
    seg = segmentation_from_cuts(SPACING, cuts)
    if kind == "eager":
        seg.rhesis
    return seg


@pytest.mark.parametrize("how", sorted(_ROUND_TRIPS))
@pytest.mark.parametrize("kind", ["lazy", "eager"])
def test_a_segmentation_round_trips_to_an_equal_one(how, kind):
    seg = _segmentation((2,), kind)
    html = render_html([segmentation_from_cuts(SPACING, (2,))])
    back = _ROUND_TRIPS[how](seg)
    assert back == seg and seg == back
    assert hash(back) == hash(seg)
    assert _bounds(back) == _bounds(seg)
    assert render_html([back]) == html
    assert "dort</span><span" in html  # the sentence's spacing: no space after "dort"


@pytest.mark.parametrize("kind", ["lazy", "eager"])
def test_every_field_refuses_assignment(kind):
    seg = _segmentation((3,), kind)
    for f in dataclasses.fields(Segmentation):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(seg, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(seg, f.name)
    # Python 3.11's frozen slots dataclass raises TypeError for a name
    # that is no field; either way nothing is set.
    for name in ("sentence_id", "rhesis", "units"):
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError, AttributeError)):
            setattr(seg, name, ())
    assert seg.spans() == ((1, 3), (4, 6))
    assert seg.sentence_id == "sp" and len(seg.rhesis) == 2


_OTHERS = {
    "twin": (Sentence.from_tokens("sp", SPACING.tokens), (2,), True),
    "other-id": (Sentence.from_tokens("sq", SPACING.tokens), (2,), False),
    "other-text": (
        Sentence.from_tokens("sp", [dataclasses.replace(SPACING.tokens[0], form="Elle"),
                                    *SPACING.tokens[1:]]),
        (2,),
        False,
    ),
    "other-cuts": (SPACING, (3,), False),
}


@pytest.mark.parametrize("other", sorted(_OTHERS))
def test_equality_reads_the_id_and_each_units_bounds_and_text(other):
    sentence, cuts, equal = _OTHERS[other]
    seg, that = segmentation_from_cuts(SPACING, (2,)), segmentation_from_cuts(sentence, cuts)
    assert (seg == that, that == seg, seg != that) == (equal, equal, not equal)
    assert (hash(seg) == hash(that)) is equal
    assert seg != seg.spans() and seg != seg.rhesis


def test_an_unknown_attribute_is_an_attribute_error():
    seg = segmentation_from_cuts(SPACING, (3,))
    with pytest.raises(AttributeError, match="units"):
        seg.units
    assert not hasattr(seg, "__deepcopy__")


# --- every producer gives the oracle's units, and equal sentences equal segmentations

# Forms with the characters the gold escape and HTML treat specially.
_FORMS = st.sampled_from(
    ["le", "chat", "et", "#", "\\", "&", "<", "a#b", "\\x", "&amp;", "<b>", ","]
)


@st.composite
def _tokens(draw):
    n = draw(st.integers(1, 14))
    tree = random_sentence(random.Random(draw(st.integers(0, 2**32 - 1))), n, n, sent_id="h")
    forms = draw(st.lists(_FORMS, min_size=n, max_size=n))
    spaced = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    upos = draw(st.lists(st.sampled_from(UPOS), min_size=n, max_size=n))
    return [
        dataclasses.replace(
            tok, form=form, upos=pos, misc="" if space else "SpaceAfter=No",
            deprel=tok.deprel if tok.head == 0 else draw(st.sampled_from(DEPRELS)),
        )
        for tok, form, space, pos in zip(tree.tokens, forms, spaced, upos)
    ]


@st.composite
def _tiled(draw):
    """Two separately built, equal sentences, and cuts and spans over them."""
    tokens = draw(_tokens())
    sentence, twin = Sentence.from_tokens("h", tokens), Sentence.from_tokens("h", tokens)
    n = len(sentence)
    cuts = tuple(sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=n - 1))))
    bounds = (0, *cuts, n)
    return sentence, twin, cuts, tuple(zip([b + 1 for b in bounds[:-1]], bounds[1:]))


_SPAN = st.builds(
    lambda mode, m: SpanConfig(max_chars=m, target_chars=1, count_mode=mode),
    st.sampled_from(["characters", "words"]),
    st.integers(1, 20),
)


def _loose(line: str) -> str:
    """``line`` as a gold file may give it: whitespace runs doubled, padded both sides."""
    return " " + "  ".join(line.split(" ")) + "\t"


@settings(max_examples=200, deadline=None)
@given(tiled=_tiled(), span=_SPAN, seed=st.integers(0, 2**32 - 1))
def test_every_producer_equals_its_eager_segmentation(tiled, span, seed):
    sentence, twin, cuts, spans = tiled
    rng = random.Random(seed)
    cfg = CascadeConfig(span=span)
    table = ScoreTable({
        (sentence.sent_id, a, b): rng.random()
        for a in range(1, len(sentence) + 1)
        for b in range(a, len(sentence) + 1)
        if rng.random() < 0.5
    })
    weights = ScoringWeights(w_count=rng.random(), w_balance=rng.random())
    texts = [sentence.span_text(a, b) for a, b in spans]
    produced = {
        "from_spans": lambda s: segmentation_from_spans(s, spans),
        "from_cuts": lambda s: segmentation_from_cuts(s, cuts),
        "cascade": lambda s: cascade_segment(s, cfg),
        "regroup": lambda s: regroup(s, segmentation_from_spans(s, spans), cfg),
        "tree": lambda s: segment_best(s, weights, span),
        "scores": lambda s: segment_by_scores(s, table, span),
        "gold": lambda s: align_gold([s], [("", texts)]).entries[0].gold,
        "loose gold": lambda s: align_gold([s], [("", [_loose(t) for t in texts])]).entries[0].gold,
    }
    for name, produce in produced.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # oversized units
            seg, other = produce(sentence), produce(twin)
        want = seg.spans() if name in ("cascade", "regroup", "tree", "scores") else spans
        _assert_one_segmentation(seg, other, sentence, want)


# --- the hot paths build no unit


@pytest.fixture
def built(monkeypatch):
    """The ``(start, end, text)`` of every ``Rhesis`` built while the test runs."""
    made = []
    real = rhesis.corpus.Rhesis

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(rhesis.corpus, "Rhesis", counting)
    return made


def _fixture():
    data = resources.files("rhesis").joinpath("data")
    sentences = parse_conllu(data.joinpath("fixture.conllu").read_bytes())
    return sentences, parse_gold(data.joinpath("fixture.rhz").read_bytes())


@pytest.mark.parametrize("span", [SpanConfig(), SpanConfig(max_chars=6, target_chars=3)])
def test_the_segmenters_build_no_unit(built, span):
    sentences, _ = _fixture()
    cfg = CascadeConfig(span=span)
    weights = ScoringWeights(w_count=0.1, w_balance=0.05)
    table = ScoreTable({(s.sent_id, 1, len(s)): 0.5 for s in sentences})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # oversized units, under the small span
        for s in sentences:
            regroup(s, cascade_segment(s, cfg), cfg).spans()
            segment_best(s, weights, span).spans()
            segment_by_scores(s, table, span).spans()
        segs = [segment_by_scores(s, table, span) for s in sentences]
        _warn_unscored(table, sentences, segs)
    assert built == []


def test_alignment_the_report_stats_and_rendering_build_no_unit(built):
    sentences, gold = _fixture()
    corpus = align_gold(sentences, gold)
    segs = [regroup(s, cascade_segment(s, CascadeConfig()), CascadeConfig()) for s in sentences]
    document_report(segs, corpus)
    length_stats([entry.gold for entry in corpus])
    render_text(segs)
    render_records(segs)
    render_html(segs, RenderOptions("html", include_ids=True))
    assert built == []


def test_reading_rhesis_builds_each_unit_once(built):
    seg = segmentation_from_cuts(SPACING, (2, 3))
    units = seg.rhesis
    assert built == [(1, 2, "Il dort"), (3, 3, ","), (4, 6, "l'ami.")]
    assert seg.rhesis is units
    assert len(built) == 3
