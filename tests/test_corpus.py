"""Tests for CoNLL-U parsing, gold parsing, and alignment."""

import random

import pytest

from rhesis import (
    AlignmentError,
    FormatError,
    ParseError,
    Sentence,
    StructuralError,
    Token,
    align_gold,
    parse_conllu,
    parse_gold,
    segmentation_from_cuts,
    segmentation_from_spans,
    subtree_span,
    token_depth,
)

from helpers import random_sentence

SAMPLE = """\
# newdoc id = demo
# sent_id = d1-s1
# text = L'eau dort, dit-on.
1\tL'\t_\tDET\t_\t_\t2\tdet\t_\tSpaceAfter=No
2\teau\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tdort\t_\tVERB\t_\t_\t0\troot\t_\tSpaceAfter=No
4\t,\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_
5-6\tdit-on\t_\t_\t_\t_\t_\t_\t_\t_
5\tdit\t_\tVERB\t_\t_\t3\tparataxis\t_\tSpaceAfter=No
6\t-on\t_\tPRON\t_\t_\t5\tnsubj\t_\tSpaceAfter=No
7\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_

1\tBien\t_\tADV\t_\t_\t0\troot\t_\t_
1.1\tsoit\t_\tVERB\t_\t_\t_\t_\t_\t_
2\t.\t_\tPUNCT\t_\t_\t1\tpunct\t_\t_
"""


def _tok(i, form, head, deprel="dep", upos="X", misc=""):
    return Token(index=i, form=form, upos=upos, head=head, deprel=deprel, misc=misc)


class TestParseConllu:
    def test_basic_fields(self):
        sents = parse_conllu(SAMPLE)
        assert len(sents) == 2
        first = sents[0]
        assert first.sent_id == "d1-s1"
        assert [t.form for t in first.tokens] == ["L'", "eau", "dort", ",", "dit", "-on", "."]
        assert first.tokens[0].upos == "DET"
        assert first.tokens[2].head == 0
        assert first.tokens[2].deprel == "root"
        assert not first.tokens[0].space_after
        assert first.tokens[1].space_after

    def test_surface_text_respects_spacing(self):
        first = parse_conllu(SAMPLE)[0]
        assert first.text == "L'eau dort, dit-on."
        assert first.span_text(1, 7) == first.text
        assert first.span_text(1, 3) == "L'eau dort"
        assert first.span_text(4, 5) == ", dit"

    def test_missing_sent_id_gets_ordinal(self):
        sents = parse_conllu(SAMPLE)
        assert sents[1].sent_id == "s2"

    def test_range_and_empty_node_lines_are_skipped(self):
        sents = parse_conllu(SAMPLE)
        assert [t.form for t in sents[1].tokens] == ["Bien", "."]

    def test_accepts_bytes_and_crlf(self):
        data = SAMPLE.replace("\n", "\r\n").encode("utf-8")
        sents = parse_conllu(data)
        assert sents[0].text == "L'eau dort, dit-on."

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_conllu(b"\xff\xfe junk")

    def test_wrong_column_count_reports_line(self):
        bad = "1\tMot\tVERB\t0\troot\n"
        with pytest.raises(ParseError, match="line 1") as exc:
            parse_conllu(bad)
        assert "10" in str(exc.value)

    def test_bad_head_reports_line(self):
        bad = "1\tMot\t_\tVERB\t_\t_\tX\troot\t_\t_\n"
        with pytest.raises(ParseError, match="line 1.*head"):
            parse_conllu(bad)

    def test_out_of_sequence_id(self):
        bad = (
            "1\tUn\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
            "3\tmot\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(ParseError, match="line 2.*sequence"):
            parse_conllu(bad)

    def test_empty_input_yields_no_sentences(self):
        assert parse_conllu("") == []
        assert parse_conllu("# just a comment\n\n") == []


class TestSentenceStructure:
    def test_head_out_of_range(self):
        with pytest.raises(StructuralError, match="head"):
            Sentence.from_tokens("bad", [_tok(1, "a", 5)])

    def test_self_head(self):
        with pytest.raises(StructuralError):
            Sentence.from_tokens("bad", [_tok(1, "a", 1)])

    def test_exactly_one_root_required(self):
        with pytest.raises(StructuralError, match="root"):
            Sentence.from_tokens("bad", [_tok(1, "a", 0), _tok(2, "b", 0)])
        with pytest.raises(StructuralError, match="root"):
            Sentence.from_tokens("bad", [_tok(1, "a", 2), _tok(2, "b", 1)])

    def test_cycle_detected(self):
        toks = [_tok(1, "a", 2), _tok(2, "b", 1), _tok(3, "c", 0)]
        with pytest.raises(StructuralError):
            Sentence.from_tokens("bad", toks)

    def test_empty_sentence_rejected(self):
        with pytest.raises(StructuralError):
            Sentence.from_tokens("bad", [])

    def test_depth_and_subtree(self):
        # 1 <- 2 <- 3 (root) -> 4, and 5 hangs off 4
        toks = [
            _tok(1, "a", 2), _tok(2, "b", 3), _tok(3, "c", 0),
            _tok(4, "d", 3), _tok(5, "e", 4),
        ]
        sent = Sentence.from_tokens("t", toks)
        assert token_depth(sent, 3) == 0
        assert token_depth(sent, 2) == 1
        assert token_depth(sent, 1) == 2
        assert subtree_span(sent, 3) == (1, 5)
        assert subtree_span(sent, 2) == (1, 2)
        assert subtree_span(sent, 4) == (4, 5)
        assert subtree_span(sent, 5) == (5, 5)


class TestSegmentationHelpers:
    def setup_method(self):
        self.sent = Sentence.from_tokens(
            "seg", [_tok(1, "un", 2), _tok(2, "mot", 0), _tok(3, "long", 2), _tok(4, ".", 2)]
        )

    def test_spans_and_cuts(self):
        seg = segmentation_from_spans(self.sent, [(1, 2), (3, 4)])
        assert seg.spans() == ((1, 2), (3, 4))
        assert seg.cuts() == (2,)
        assert seg.token_count == 4
        assert [r.text for r in seg.rhesis] == ["un mot", "long ."]

    def test_from_cuts(self):
        seg = segmentation_from_cuts(self.sent, (1, 3))
        assert seg.spans() == ((1, 1), (2, 3), (4, 4))

    def test_tiling_enforced(self):
        with pytest.raises(ValueError):
            segmentation_from_spans(self.sent, [(1, 2), (4, 4)])  # gap
        with pytest.raises(ValueError):
            segmentation_from_spans(self.sent, [(1, 3), (3, 4)])  # overlap
        with pytest.raises(ValueError):
            segmentation_from_spans(self.sent, [(2, 4)])  # missing start
        with pytest.raises(ValueError):
            segmentation_from_spans(self.sent, [])


class TestParseGold:
    def test_doc_labels_and_groups(self):
        data = "#doc livre-1\nUn.\n\n# commentaire\nDeux\ntrois.\n\n#doc livre-2\nQuatre.\n"
        groups = parse_gold(data)
        assert groups == [
            ("livre-1", ["Un."]),
            ("livre-1", ["Deux", "trois."]),
            ("livre-2", ["Quatre."]),
        ]

    def test_label_before_any_doc_is_empty(self):
        assert parse_gold("Seul.\n") == [("", ["Seul."])]

    def test_malformed_doc_line(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_gold("#doc\nUn.\n")
        with pytest.raises(FormatError, match="line 1"):
            parse_gold("#doc   \nUn.\n")

    def test_doc_inside_sentence_block(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_gold("Un\n#doc livre\ndeux.\n")

    def test_crlf_and_bytes(self):
        groups = parse_gold(b"#doc a\r\nUn.\r\n\r\n")
        assert groups == [("a", ["Un."])]


class TestAlignGold:
    def test_aligns_spans_and_labels(self):
        sents = parse_conllu(SAMPLE)
        corpus = align_gold(sents, parse_gold("#doc demo\nL'eau dort,\ndit-on.\n\nBien .\n"))
        assert len(corpus) == 2
        entry = corpus.entries[0]
        assert entry.doc_label == "demo"
        assert entry.gold.spans() == ((1, 4), (5, 7))
        assert corpus.entries[1].gold.spans() == ((1, 2),)

    def test_whitespace_runs_collapse(self):
        sents = parse_conllu(SAMPLE)
        gold = parse_gold("L'eau   dort,\n   dit-on.\n\nBien\n.\n")
        corpus = align_gold(sents, gold)
        assert corpus.entries[0].gold.spans() == ((1, 4), (5, 7))
        assert corpus.entries[1].gold.spans() == ((1, 1), (2, 2))

    def test_count_mismatch(self):
        sents = parse_conllu(SAMPLE)
        with pytest.raises(AlignmentError, match="count mismatch"):
            align_gold(sents, parse_gold("L'eau dort, dit-on.\n"))

    def test_boundary_inside_token(self):
        sents = parse_conllu(SAMPLE)
        gold = parse_gold("L'eau dort, dit\n-on.\n\nBien .\n")
        # dit/-on split is a token boundary, so that aligns; splitting eau is not
        align_gold(sents, gold)
        with pytest.raises(AlignmentError, match="inside token"):
            align_gold(sents, parse_gold("L'e\nau dort, dit-on.\n\nBien .\n"))

    def test_text_mismatch(self):
        sents = parse_conllu(SAMPLE)
        with pytest.raises(AlignmentError, match="does not match"):
            align_gold(sents, parse_gold("L'eau pleure, dit-on.\n\nBien .\n"))

    def test_incomplete_coverage(self):
        sents = parse_conllu(SAMPLE)
        with pytest.raises(AlignmentError, match="covers"):
            align_gold(sents, parse_gold("L'eau dort,\n\nBien .\n"))

    def test_overlong_gold_line(self):
        sents = parse_conllu(SAMPLE)
        with pytest.raises(AlignmentError, match="past the last token"):
            align_gold(sents, parse_gold("L'eau dort, dit-on. encore\n\nBien .\n"))


def test_random_sentences_are_structurally_valid():
    rng = random.Random(4242)
    for _ in range(200):
        sent = random_sentence(rng)
        roots = [t for t in sent.tokens if t.head == 0]
        assert len(roots) == 1
        assert sent.span_text(1, len(sent.tokens)) == sent.text


class TestUniqueSentenceIds:
    def test_duplicate_explicit_id_names_id_and_line(self):
        data = ("# sent_id = a\n1\tUn\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
                "# sent_id = a\n1\tDeux\t_\tX\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ParseError, match="line 4: duplicate sentence id 'a'"):
            parse_conllu(data)

    def test_explicit_id_colliding_with_ordinal(self):
        data = ("# sent_id = s2\n1\tUn\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
                "1\tDeux\t_\tX\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ParseError, match="line 4: duplicate sentence id 's2'"):
            parse_conllu(data)

    def test_distinct_ids_parse(self):
        assert [s.sent_id for s in parse_conllu(SAMPLE)] == ["d1-s1", "s2"]


def test_parse_gold_rejects_invalid_utf8():
    with pytest.raises(FormatError, match="UTF-8"):
        parse_gold(b"\xff")
