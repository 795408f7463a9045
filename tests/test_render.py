"""Tests for the text, record, and HTML renderers."""

import dataclasses
import html
import json
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    CascadeConfig,
    RenderOptions,
    ScoreTable,
    ScoringWeights,
    Sentence,
    SpanConfig,
    Token,
    cascade_segment,
    regroup,
    render,
    render_html,
    render_records,
    render_text,
    segment_best,
    segment_by_scores,
    segmentation_from_cuts,
)

from helpers import random_sentence


def _sent(sent_id, rows):
    tokens = [
        Token(index=i, form=form, upos=upos, head=head, deprel=deprel,
              misc="" if space else "SpaceAfter=No")
        for i, (form, upos, head, deprel, space) in enumerate(rows, start=1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


PLAIN = _sent("s7", [
    ("Le", "DET", 2, "det", True),
    ("chat", "NOUN", 3, "nsubj", True),
    ("dort", "VERB", 0, "root", False),
    (".", "PUNCT", 3, "punct", True),
])

MARKED = _sent("s8", [
    ("a", "NOUN", 0, "root", True),
    ("<", "SYM", 1, "dep", True),
    ("b", "NOUN", 1, "dep", True),
    ("&", "CCONJ", 5, "cc", True),
    ("c", "NOUN", 1, "conj", False),
])


class TestRenderText:
    def test_one_line_per_rhesis_blank_line_per_sentence(self):
        segs = [segmentation_from_cuts(PLAIN, (2,))]
        assert render_text(segs) == "Le chat\ndort.\n\n"

    def test_multiple_sentences(self):
        segs = [
            segmentation_from_cuts(PLAIN, ()),
            segmentation_from_cuts(MARKED, (3,)),
        ]
        assert render_text(segs) == (
            "Le chat dort.\n\na < b\n& c\n\n"
        )

    def test_empty_input_renders_nothing(self):
        assert render_text([]) == ""


class TestRenderRecords:
    def test_record_per_rhesis_with_stable_keys(self):
        segs = [segmentation_from_cuts(PLAIN, (2,))]
        lines = render_records(segs).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"sentence_id": "s7", "start": 1, "end": 2, "text": "Le chat"}
        assert list(first) == ["sentence_id", "start", "end", "text"]
        second = json.loads(lines[1])
        assert second["start"] == 3 and second["end"] == 4
        assert second["text"] == "dort."

    def test_non_ascii_not_escaped(self):
        accented = _sent("s9", [("été", "NOUN", 0, "root", True)])
        out = render_records([segmentation_from_cuts(accented, ())])
        assert '"été"' in out

    def test_trailing_newline_only_when_nonempty(self):
        assert render_records([]) == ""
        out = render_records([segmentation_from_cuts(PLAIN, ())])
        assert out.endswith("\n") and not out.endswith("\n\n")


class TestRenderHtml:
    def test_block_per_sentence_span_per_rhesis(self):
        segs = [segmentation_from_cuts(PLAIN, (2,))]
        html = render_html(segs)
        assert html.count('<p class="rhesis-sentence">') == 1
        assert html.count('<span class="rhesis"') == 2
        assert 'style="white-space: nowrap"' in html
        assert html.endswith("</p>\n")

    def test_markup_characters_escaped(self):
        segs = [segmentation_from_cuts(MARKED, ())]
        html = render_html(segs)
        assert "a &lt; b &amp; c" in html
        assert "<span" in html  # real markup survives

    def test_ids_enabled(self):
        opts = RenderOptions(format="html", include_ids=True)
        segs = [segmentation_from_cuts(PLAIN, (2,))]
        html = render_html(segs, opts)
        assert 'id="s7-r1"' in html
        assert 'id="s7-r2"' in html

    def test_ids_off_by_default(self):
        segs = [segmentation_from_cuts(PLAIN, (2,))]
        assert ' id="' not in render_html(segs)

    def test_custom_class_prefix(self):
        opts = RenderOptions(format="html", html_class_prefix="unit")
        html = render_html([segmentation_from_cuts(PLAIN, ())], opts)
        assert '<p class="unit-sentence">' in html
        assert '<span class="unit"' in html
        assert "rhesis" not in html

    def test_sibling_order_follows_token_order(self):
        segs = [segmentation_from_cuts(PLAIN, (1, 2))]
        texts = re.findall(r">([^<]*)</span>", render_html(segs))
        assert texts == ["Le", "chat", "dort."]

    def test_stripped_text_round_trips_up_to_whitespace(self):
        # Concatenating the rendered rhesis and collapsing runs of spaces
        # must give back the sentence surface (inter-rhesis spacing is not
        # recorded in the segmentation itself).
        sentences = [PLAIN, MARKED]
        segs = [segmentation_from_cuts(PLAIN, (1, 2)),
                segmentation_from_cuts(MARKED, (2, 4))]
        html = render_html(segs)
        for sentence, para in zip(sentences, html.splitlines()):
            visible = re.sub(r"<[^>]+>", "", para)
            unescaped = (visible.replace("&lt;", "<").replace("&gt;", ">")
                         .replace("&quot;", '"').replace("&amp;", "&"))
            normalized = re.sub(r"\s+", " ", unescaped).strip()
            target = re.sub(r"\s+", " ", sentence.text).strip()
            assert normalized == target

    def test_empty_input_renders_nothing(self):
        assert render_html([]) == ""

    def test_a_joint_without_a_space_shows_none(self):
        html_line = render_html([segmentation_from_cuts(PLAIN, (3,))])
        assert "dort</span><span" in html_line
        assert html_line.count("</span> <span") == 0


# Forms with the characters HTML escapes, an escape of its own and an inner space.
_HTML_FORMS = st.sampled_from(["a", "b&c", "<", '"', "x>y", "&amp;", "d e", "fg"])


def _segmented(sentence: Sentence, method: str, span: SpanConfig, rng: random.Random):
    if method == "cascade":
        config = CascadeConfig(span=span)
        return regroup(sentence, cascade_segment(sentence, config), config)
    if method == "tree":
        weights = ScoringWeights(w_count=rng.random(), w_balance=rng.random())
        return segment_best(sentence, weights, span)
    n = len(sentence)
    spans = {(a, rng.randint(a, n)) for a in range(1, n + 1) if rng.random() < 0.7}
    table = ScoreTable({(sentence.sent_id, a, b): rng.random() for a, b in spans})
    return segment_by_scores(sentence, table, span)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    forms=st.lists(st.tuples(_HTML_FORMS, st.booleans()), min_size=1, max_size=12),
    method=st.sampled_from(["cascade", "tree", "scores"]),
    mode=st.sampled_from(["characters", "words"]),
    max_units=st.integers(1, 12),
    include_ids=st.booleans(),
)
def test_each_html_line_reads_back_as_the_sentence_text(
    seed, forms, method, mode, max_units, include_ids
):
    rng = random.Random(seed)
    tree = random_sentence(rng, len(forms), len(forms), sent_id='s&<"1')
    sentence = Sentence.from_tokens(tree.sent_id, [
        dataclasses.replace(tok, form=form, misc="" if space else "SpaceAfter=No")
        for tok, (form, space) in zip(tree.tokens, forms)
    ])
    span = SpanConfig(max_chars=max_units, target_chars=1, count_mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # oversized units
        seg = _segmented(sentence, method, span, rng)
    (line,) = render_html([seg], RenderOptions("html", include_ids=include_ids)).splitlines()
    assert html.unescape(re.sub(r"<[^>]*>", "", line)) == sentence.text


class TestRenderDispatch:
    def test_format_validation(self):
        with pytest.raises(ValueError, match="format"):
            RenderOptions(format="yaml")

    def test_dispatch_matches_direct_calls(self):
        segs = [segmentation_from_cuts(PLAIN, (2,))]
        assert render(segs, RenderOptions(format="txt")) == render_text(segs)
        assert render(segs, RenderOptions(format="records")) == render_records(segs)
        assert render(segs, RenderOptions(format="html")) == render_html(segs)
