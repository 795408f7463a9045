"""Tests for segmentation metrics and report formatting."""

import warnings
from importlib import resources

import pytest

from rhesis import (
    CascadeConfig,
    EvalReport,
    PerDocRow,
    Sentence,
    Token,
    align_gold,
    boundary_prf,
    cascade_segment,
    corpus_report,
    document_report,
    format_length_stats,
    format_report,
    length_stats,
    parse_conllu,
    parse_gold,
    regroup,
    rhesis_precision,
    segmentation_from_cuts,
)

from helpers import relabelled_fixture_gold


def _words(sent_id, forms):
    tokens = [
        Token(index=i, form=form, upos="NOUN" if i > 1 else "VERB",
              head=0 if i == 1 else 1, deprel="root" if i == 1 else "obj",
              misc="")
        for i, form in enumerate(forms, start=1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


S4 = _words("s1", ["un", "deux", "trois", "quatre"])
S6 = _words("s2", ["a", "b", "c", "d", "e", "f"])


class TestRhesisPrecision:
    def test_identical_segmentations_score_one(self):
        segs = [segmentation_from_cuts(S4, (2,)), segmentation_from_cuts(S6, (3,))]
        assert rhesis_precision(segs, segs) == (1.0, 1.0, 1.0)

    def test_disjoint_spans_score_zero(self):
        auto = [segmentation_from_cuts(S4, ())]
        gold = [segmentation_from_cuts(S4, (1, 2))]
        assert rhesis_precision(auto, gold) == (0.0, 0.0, 0.0)

    def test_two_of_three_produced_spans_match(self):
        # Sentence one agrees exactly (two shared spans); sentence two is
        # kept whole against a two-piece gold, adding one unmatched span on
        # each side: matched 2, produced 3, gold 4.
        auto = [segmentation_from_cuts(S4, (2,)), segmentation_from_cuts(S6, ())]
        gold = [segmentation_from_cuts(S4, (2,)), segmentation_from_cuts(S6, (3,))]
        precision, recall, f1 = rhesis_precision(auto, gold)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 4)
        assert f1 == pytest.approx(4 / 7)

    def test_spans_match_per_sentence_not_across(self):
        # The same (start, end) span in a *different* sentence must not count.
        auto = [segmentation_from_cuts(S4, ()), segmentation_from_cuts(S6, (4,))]
        gold = [segmentation_from_cuts(S4, (2,)), segmentation_from_cuts(S6, (2,))]
        precision, _, _ = rhesis_precision(auto, gold)
        assert precision == 0.0

    def test_empty_lists_score_zero(self):
        assert rhesis_precision([], []) == (0.0, 0.0, 0.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="count mismatch"):
            rhesis_precision([segmentation_from_cuts(S4, ())], [])

    def test_sentence_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="id mismatch"):
            rhesis_precision(
                [segmentation_from_cuts(S4, ())],
                [segmentation_from_cuts(S6, ())],
            )

    def test_token_count_mismatch_rejected(self):
        other = _words("s1", ["un", "deux", "trois"])
        with pytest.raises(ValueError, match="token count"):
            rhesis_precision(
                [segmentation_from_cuts(S4, ())],
                [segmentation_from_cuts(other, ())],
            )


class TestBoundaryPrf:
    def test_subset_of_gold_boundaries(self):
        auto = [segmentation_from_cuts(S6, (2,))]
        gold = [segmentation_from_cuts(S6, (2, 5))]
        precision, recall, f1 = boundary_prf(auto, gold)
        assert precision == 1.0
        assert recall == 0.5
        assert f1 == pytest.approx(2 / 3)

    def test_no_boundaries_anywhere_is_perfect(self):
        auto = [segmentation_from_cuts(S4, ())]
        gold = [segmentation_from_cuts(S4, ())]
        assert boundary_prf(auto, gold) == (1.0, 1.0, 1.0)

    def test_vacuous_precision_when_auto_places_none(self):
        auto = [segmentation_from_cuts(S6, ())]
        gold = [segmentation_from_cuts(S6, (2, 4))]
        assert boundary_prf(auto, gold) == (1.0, 0.0, 0.0)

    def test_vacuous_recall_when_gold_has_none(self):
        auto = [segmentation_from_cuts(S6, (3,))]
        gold = [segmentation_from_cuts(S6, ())]
        assert boundary_prf(auto, gold) == (0.0, 1.0, 0.0)

    def test_pairs_validated(self):
        with pytest.raises(ValueError, match="id mismatch"):
            boundary_prf(
                [segmentation_from_cuts(S4, ())],
                [segmentation_from_cuts(S6, ())],
            )


class TestCorpusReport:
    def test_single_row_weighted_average_is_its_precision(self):
        report = corpus_report([PerDocRow(label="only", rhesis_count=7, precision=0.25)])
        assert isinstance(report, EvalReport)
        assert report.weighted_precision == 0.25
        assert report.per_doc[0].label == "only"

    def test_counts_weight_the_average(self):
        rows = [
            PerDocRow(label="small", rhesis_count=1, precision=0.0),
            PerDocRow(label="large", rhesis_count=3, precision=1.0),
        ]
        assert corpus_report(rows).weighted_precision == 0.75

    def test_tuples_accepted_and_units_preserved(self):
        # Percentages aggregate the same way as rates: nothing rescales.
        rows = [("a", 2, 50.0), ("b", 2, 70.0)]
        report = corpus_report(rows)
        assert report.weighted_precision == 60.0
        assert all(isinstance(r, PerDocRow) for r in report.per_doc)

    def test_five_document_weighted_mean(self):
        rows = [
            ("d1", 100, 0.5),
            ("d2", 200, 0.8),
            ("d3", 300, 0.6),
            ("d4", 250, 0.7),
            ("d5", 150, 0.9),
        ]
        expected = (100 * 0.5 + 200 * 0.8 + 300 * 0.6 + 250 * 0.7 + 150 * 0.9) / 1000
        assert corpus_report(rows).weighted_precision == pytest.approx(expected)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            corpus_report([PerDocRow(label="bad", rhesis_count=0, precision=0.5)])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            corpus_report([])


class TestDocumentReport:
    @pytest.fixture(scope="class")
    def mixed(self):
        """The fixture's cascade output and its gold labelled (none, B, A, B, A)."""
        fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
        sentences = parse_conllu(fixture.read_bytes())
        cfg = CascadeConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            auto = [regroup(s, cascade_segment(s, cfg), cfg) for s in sentences]
        return auto, align_gold(sentences, parse_gold(relabelled_fixture_gold()))

    def test_runs_of_one_label_merge_into_its_first_seen_row(self, mixed):
        auto, gold = mixed
        groups = {"-": range(0, 6), "B": [*range(6, 12), *range(18, 24)],
                  "A": [*range(12, 18), *range(24, 30)]}
        rows = []
        for label, idx in groups.items():
            a = [auto[i] for i in idx]
            g = [gold.entries[i].gold for i in idx]
            count = sum(len(seg.rhesis) for seg in g)
            rows.append(PerDocRow(label, count, *rhesis_precision(a, g), *boundary_prf(a, g)))
        report = document_report(auto, gold)
        assert [row.label for row in report.per_doc] == ["-", "B", "A"]
        assert report == corpus_report(rows)

    def test_sentence_count_mismatch_rejected(self, mixed):
        auto, gold = mixed
        with pytest.raises(ValueError, match="sentence count mismatch: 29 auto vs 30 gold"):
            document_report(auto[:-1], gold)


class TestFormatReport:
    def test_table_shape(self):
        report = corpus_report([
            PerDocRow(label="alpha", rhesis_count=4, precision=0.5, recall=0.25,
                      f1=1 / 3, boundary_precision=0.6, boundary_recall=0.4,
                      boundary_f1=0.48),
            PerDocRow(label="beta", rhesis_count=12, precision=0.75),
        ])
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("doc")
        for name in ("rhesis", "prec", "rec", "f1", "b-prec", "b-rec", "b-f1"):
            assert name in lines[0]
        assert set(lines[1]) == {"-"}
        assert lines[2].startswith("alpha")
        assert lines[3].startswith("beta")
        assert lines[4].startswith("weighted avg")
        assert "16" in lines[4]  # total gold rhesis
        assert text.endswith("\n")

    def test_weighted_row_value(self):
        report = corpus_report([("a", 1, 0.0), ("b", 3, 1.0)])
        last = format_report(report).splitlines()[-1]
        assert "0.75" in last


class TestLengthStats:
    def test_single_short_rhesis(self):
        seg = segmentation_from_cuts(_words("s1", ["abc"]), ())
        stats = length_stats([seg])
        assert stats.count == 1
        assert stats.mean_chars == 3.0
        assert stats.std_chars == 0.0
        assert stats.mean_words == 1.0
        assert stats.histogram == {0: 1}

    def test_mean_and_population_std(self):
        # Two rhesis of 10 and 20 characters: mean 15, population std 5.
        s = _words("s1", ["abcd", "efghi", "jklmnopqrstuvwxyz", "ab"])
        seg = segmentation_from_cuts(s, (2,))
        assert [len(r.text) for r in seg.rhesis] == [10, 20]
        stats = length_stats([seg])
        assert stats.mean_chars == 15.0
        assert stats.std_chars == 5.0
        assert stats.mean_words == 2.0
        assert stats.histogram == {10: 1, 20: 1}

    def test_bucket_edges(self):
        # 9 chars falls in the 5-9 bucket, 10 in 10-14, 14 in 10-14.
        s = _words("s1", ["aaaaaaaaa", "bbbbbbbbbb", "cccccccccccccc"])
        seg = segmentation_from_cuts(s, (1, 2))
        stats = length_stats([seg])
        assert stats.histogram == {5: 1, 10: 2}

    def test_aggregates_across_sentences(self):
        segs = [
            segmentation_from_cuts(_words("s1", ["aa", "bb"]), (1,)),
            segmentation_from_cuts(_words("s2", ["cc"]), ()),
        ]
        assert length_stats(segs).count == 3

    def test_no_rhesis_rejected(self):
        with pytest.raises(ValueError, match="no rhesis"):
            length_stats([])


class TestFormatLengthStats:
    def test_shape(self):
        seg = segmentation_from_cuts(_words("s1", ["aa", "bb", "cc"]), (1, 2))
        text = format_length_stats(length_stats([seg]))
        assert "rhesis count      3" in text
        assert "chars mean / std" in text
        assert "#" in text
        assert text.endswith("\n")

    def test_bars_scale_to_peak(self):
        s = _words("s1", ["aa", "bb", "cc", "ddddddddd"])
        seg = segmentation_from_cuts(s, (1, 2, 3))
        text = format_length_stats(length_stats([seg]))
        bucket_lines = [l for l in text.splitlines() if l.lstrip().startswith(("0-", "5-"))]
        assert len(bucket_lines) == 2
        peak_line = next(l for l in bucket_lines if l.lstrip().startswith("0-"))
        assert peak_line.count("#") == 40
