"""Tests for classifier candidate export and score-driven segmentation."""

import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    AlignedCorpus,
    CandidateExample,
    FormatError,
    ScoreTable,
    Sentence,
    SpanConfig,
    Token,
    candidates_to_tsv,
    export_candidates,
    finetune_manifest,
    load_scores,
    segment_by_scores,
    segmentation_from_cuts,
)
from rhesis._dp import scaled

from helpers import corpus_from_golds, random_sentence

WIDE = SpanConfig(max_chars=999, target_chars=500)


def _words(sent_id, forms):
    tokens = [
        Token(index=i, form=form, upos="NOUN" if i > 1 else "VERB",
              head=0 if i == 1 else 1, deprel="root" if i == 1 else "obj",
              misc="")
        for i, form in enumerate(forms, start=1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


def _corpus(*pairs):
    sentences = [s for s, _ in pairs]
    golds = [segmentation_from_cuts(s, cuts) for s, cuts in pairs]
    return corpus_from_golds(sentences, golds)


TEN = _words("s1", ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj"])


class TestExportCandidates:
    def test_zero_negatives_yields_exactly_the_gold_spans(self):
        corpus = _corpus((TEN, (4,)))
        examples = export_candidates(corpus, 0, seed=1, span=WIDE)
        assert sorted((e.start, e.end) for e in examples) == [(1, 4), (5, 10)]
        assert all(e.label == 1 for e in examples)

    def test_negatives_share_exactly_one_gold_endpoint(self):
        corpus = _corpus((TEN, (4,)))
        examples = export_candidates(corpus, 2, seed=7, span=WIDE)
        gold = {(1, 4), (5, 10)}
        negatives = [(e.start, e.end) for e in examples if e.label == 0]
        assert len(negatives) == 4  # pools are plentiful, no fallback needed
        for s, e in negatives:
            assert (s, e) not in gold
            shared = sum((s, e)[i] == g[i] for g in gold for i in (0, 1))
            assert shared >= 1

    def test_fallback_tops_up_when_one_boundary_pool_runs_dry(self):
        three = _words("s3", ["aa", "bb", "cc"])
        corpus = _corpus((three, ()))
        examples = export_candidates(corpus, 5, seed=3, span=WIDE)
        negatives = {(e.start, e.end) for e in examples if e.label == 0}
        # the one-boundary pool holds only four sub-sections of (1, 3); the
        # fifth negative must be the interior span
        assert negatives == {(1, 1), (1, 2), (2, 3), (3, 3), (2, 2)}

    def test_short_supply_is_not_an_error(self):
        two = _words("s2", ["aa", "bb"])
        corpus = _corpus((two, ()))
        examples = export_candidates(corpus, 9, seed=5, span=WIDE)
        negatives = [e for e in examples if e.label == 0]
        assert {(e.start, e.end) for e in negatives} == {(1, 1), (2, 2)}

    def test_no_duplicate_spans_within_a_sentence(self):
        corpus = _corpus((TEN, (3, 7)))
        examples = export_candidates(corpus, 4, seed=11, span=WIDE)
        spans = [(e.sentence_id, e.start, e.end) for e in examples]
        assert len(spans) == len(set(spans))

    def test_negatives_respect_span_budget(self):
        tight = SpanConfig(max_chars=8, target_chars=6)
        corpus = _corpus((TEN, tuple(range(2, 10, 2))))
        examples = export_candidates(corpus, 3, seed=13, span=tight)
        for e in examples:
            if e.label == 0:
                assert len(e.candidate_text) <= 8

    def test_candidate_text_matches_the_span(self):
        corpus = _corpus((TEN, (4,)))
        for e in export_candidates(corpus, 2, seed=17, span=WIDE):
            assert e.candidate_text == TEN.span_text(e.start, e.end)
            assert e.sentence_text == TEN.text

    def test_same_seed_same_export(self):
        corpus = _corpus((TEN, (4,)), (_words("s2", ["xx", "yy", "zz"]), (1,)))
        a = export_candidates(corpus, 3, seed=21, span=WIDE)
        b = export_candidates(corpus, 3, seed=21, span=WIDE)
        assert a == b

    def test_different_seed_changes_the_export(self):
        corpus = _corpus((TEN, (4,)))
        a = export_candidates(corpus, 3, seed=1, span=WIDE)
        b = export_candidates(corpus, 3, seed=2, span=WIDE)
        assert a != b

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            export_candidates(AlignedCorpus(entries=()), 2, seed=1, span=WIDE)

    def test_negative_count_rejected(self):
        corpus = _corpus((TEN, (4,)))
        with pytest.raises(ValueError, match=">= 0"):
            export_candidates(corpus, -1, seed=1, span=WIDE)


class TestCandidatesToTsv:
    def test_header_and_rows(self):
        ex = CandidateExample(
            sentence_id="s1", sentence_text="aa bb", start=1, end=2,
            candidate_text="aa bb", label=1,
        )
        text = candidates_to_tsv([ex])
        lines = text.splitlines()
        assert lines[0] == "sentence_id\tsentence_text\tstart\tend\tcandidate_text\tlabel"
        assert lines[1] == "s1\taa bb\t1\t2\taa bb\t1"
        assert text.endswith("\n")

    def test_empty_export_is_just_the_header(self):
        assert candidates_to_tsv([]) == (
            "sentence_id\tsentence_text\tstart\tend\tcandidate_text\tlabel\n"
        )

    def test_a_tab_in_a_form_is_refused_not_written_as_a_field(self):
        sentence = _words("s1", ["a\tb", "cc"])
        examples = export_candidates(_corpus((sentence, (1,))), 1, seed=0, span=WIDE)
        with pytest.raises(ValueError, match="sentence 's1': its text holds a tab"):
            candidates_to_tsv(examples)

    @pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\rb", "ab\r"])
    def test_a_break_in_a_candidate_text_is_refused(self, text):
        good = CandidateExample("s0", "x y", 1, 2, "x y", 1)
        bad = CandidateExample("s1", "a b", 1, 2, text, 0)
        with pytest.raises(ValueError, match=r"sentence 's1': candidate \(1, 2\) holds a tab"):
            candidates_to_tsv([good, bad, good])

    @pytest.mark.parametrize(
        "bad, named",
        [(("1\t2", 2, 0), r"\('1\\t2', 2\)"), ((1, "2\n", 0), r"\(1, '2\\n'\)"),
         ((1, 2, "0\r"), r"\(1, 2\)")],
        ids=["start", "end", "label"],
    )
    def test_a_break_in_a_number_field_is_refused(self, bad, named):
        start, end, label = bad
        record = CandidateExample("s1", "a b", start, end, "a b", label)
        with pytest.raises(ValueError, match=rf"sentence 's1': candidate {named} holds"):
            candidates_to_tsv([record])

    def test_the_first_bad_record_is_named(self):
        examples = [
            CandidateExample("s1", "a b", 1, 2, "a b", 1),
            CandidateExample("s2", "c\td", 1, 1, "c", 0),
            CandidateExample("s\n3", "e f", 1, 1, "e", 0),
        ]
        with pytest.raises(ValueError, match="sentence 's2': its text holds a tab"):
            candidates_to_tsv(examples)
        with pytest.raises(ValueError, match=r"sentence id 's\\n3' holds a tab"):
            candidates_to_tsv(examples[::-1])


def _f_string_tsv(examples):
    """candidates_to_tsv as first written: one f-string per row."""
    lines = ["sentence_id\tsentence_text\tstart\tend\tcandidate_text\tlabel"]
    for ex in examples:
        lines.append(
            f"{ex.sentence_id}\t{ex.sentence_text}\t{ex.start}\t{ex.end}"
            f"\t{ex.candidate_text}\t{ex.label}"
        )
    return "\n".join(lines) + "\n"


FIELD_TEXT = st.text(
    alphabet=st.sampled_from("%s{}%%{0}é中😀\\ ") | st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\t\n\r"
    ),
    max_size=12,
)
RECORDS = st.builds(
    CandidateExample, FIELD_TEXT, FIELD_TEXT, st.integers(-5, 10**6), st.integers(-5, 10**6),
    FIELD_TEXT, st.integers(0, 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RECORDS, max_size=8))
def test_tsv_equals_the_f_string_rows(examples):
    assert candidates_to_tsv(examples) == _f_string_tsv(examples)


class TestCandidateExample:
    EX = CandidateExample("s1", "aa bb", 1, 2, "aa bb", 1)

    def test_keyword_and_positional_construction_agree(self):
        keyword = CandidateExample(
            sentence_id="s1", sentence_text="aa bb", start=1, end=2,
            candidate_text="aa bb", label=1,
        )
        assert keyword == self.EX
        assert (keyword.sentence_id, keyword.start, keyword.label) == ("s1", 1, 1)

    def test_fields_are_the_tsv_columns_in_order(self):
        header = candidates_to_tsv([]).rstrip("\n").split("\t")
        assert list(CandidateExample._fields) == header

    def test_a_field_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.EX.label = 0
        assert self.EX.label == 1

    def test_equality_and_hash_by_value(self):
        twin = CandidateExample(*self.EX)
        assert twin == self.EX and twin is not self.EX
        assert hash(twin) == hash(self.EX)
        assert twin != self.EX._replace(label=0)
        assert self.EX == ("s1", "aa bb", 1, 2, "aa bb", 1)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda ex: pickle.loads(pickle.dumps(ex))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_round_trips(self, round_trip):
        again = round_trip(self.EX)
        assert type(again) is CandidateExample
        assert again == self.EX


class TestFinetuneManifest:
    def test_recommended_settings(self):
        manifest = finetune_manifest(negatives_per_positive=4, seed=9,
                                     positives=54, negatives=216)
        assert manifest["max_seq_length"] == 48
        assert manifest["batch_size"] == 16
        assert manifest["learning_rate"] == 2e-5
        assert manifest["epochs"] == 3
        assert manifest["holdout_fraction"] == 0.33
        assert "one third" in manifest["holdout_note"]
        assert manifest["negatives_per_positive"] == 4
        assert manifest["seed"] == 9
        assert manifest["examples"] == {"positive": 54, "negative": 216}


class TestLoadScores:
    def test_single_record(self):
        table = load_scores("s1\t1\t4\t0.93\n")
        assert len(table) == 1
        assert table.get("s1", 1, 4) == 0.93
        assert table.get("s1", 2, 4) is None
        assert table.get("s1", 2, 4, 0.5) == 0.5

    def test_blank_lines_skipped(self):
        table = load_scores("\ns1\t1\t2\t0.5\n\n   \ns1\t3\t4\t0.25\n")
        assert len(table) == 2

    def test_crlf_and_bytes_accepted(self):
        table = load_scores(b"s1\t1\t2\t0.5\r\ns1\t3\t4\t0.25\r\n")
        assert table.get("s1", 3, 4) == 0.25

    def test_invalid_utf8_rejected(self):
        with pytest.raises(FormatError, match="UTF-8"):
            load_scores(b"s1\t1\t2\t\xff0.5\n")

    def test_wrong_field_count_names_the_line(self):
        with pytest.raises(FormatError, match="line 2.*4 tab-separated"):
            load_scores("s1\t1\t2\t0.5\ns1\t1\t2\n")

    def test_unreadable_numbers_rejected(self):
        with pytest.raises(FormatError, match="line 1.*unreadable"):
            load_scores("s1\tone\t2\t0.5\n")

    def test_probability_above_one_rejected(self):
        with pytest.raises(FormatError, match=r"1\.7.*outside"):
            load_scores("s1\t1\t2\t1.7\n")

    def test_nan_probability_rejected(self):
        with pytest.raises(FormatError, match="outside"):
            load_scores("s1\t1\t2\tnan\n")

    def test_duplicate_keeps_last_and_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_scores("s1\t1\t2\t0.5\ns1\t1\t2\t0.75\n")
        assert table.get("s1", 1, 2) == 0.75

    def test_duplicates_are_counted_in_one_warning(self):
        rows = "s1\t1\t2\t0.5\ns1\t1\t2\t0.6\ns1\t3\t4\t0.5\ns1\t3\t4\t0.7\ns1\t1\t2\t0.8\n"
        with pytest.warns(UserWarning) as caught:
            table = load_scores(rows)
        assert [str(w.message) for w in caught] == [
            "3 duplicate score rows (the first on line 2), keeping the last"
        ]
        assert (table.get("s1", 1, 2), table.get("s1", 3, 4)) == (0.8, 0.7)

    @pytest.mark.parametrize("encode", [str, lambda text: text.encode("utf-8")],
                             ids=["str", "bytes"])
    def test_a_leading_byte_order_mark_is_dropped(self, encode):
        table = load_scores(encode("\ufeffa\t1\t2\t0.5\nb\t1\t2\t0.25\n"))
        assert sorted(table.probabilities) == [("a", 1, 2), ("b", 1, 2)]

    def test_empty_input_is_an_empty_table(self):
        assert len(load_scores("")) == 0


class TestSegmentByScores:
    def test_epsilon_must_be_strictly_inside_unit_interval(self):
        sent = _words("s1", ["aa", "bb"])
        table = ScoreTable(probabilities={})
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                segment_by_scores(sent, table, WIDE, epsilon=bad)

    def test_empty_table_keeps_the_sentence_whole(self):
        sent = _words("s1", ["aa", "bb", "cc", "dd"])
        seg = segment_by_scores(sent, ScoreTable(probabilities={}), WIDE)
        assert seg.cuts() == ()

    def test_recovers_the_certain_segmentation(self):
        sent = _words("s1", ["aa", "bb", "cc", "dd"])
        table = ScoreTable(probabilities={("s1", 1, 2): 1.0, ("s1", 3, 4): 1.0})
        seg = segment_by_scores(sent, table, WIDE, epsilon=0.01)
        assert seg.cuts() == (2,)

    def test_zero_probability_is_floored_not_fatal(self):
        sent = _words("s1", ["aa", "bb", "cc", "dd"])
        table = ScoreTable(probabilities={("s1", 1, 4): 0.0})
        seg = segment_by_scores(sent, table, WIDE, epsilon=0.01)
        assert seg.cuts() != ()  # the floored span loses to epsilon spans

    def test_all_certain_ties_resolve_to_fewest_rhesis(self):
        sent = _words("s1", ["aa", "bb", "cc"])
        probs = {("s1", s, e): 1.0 for s in (1, 2, 3) for e in range(s, 4)}
        seg = segment_by_scores(sent, ScoreTable(probabilities=probs), WIDE)
        assert seg.cuts() == ()

    def test_equal_count_ties_resolve_to_earliest_cuts(self):
        sent = _words("s1", ["aa", "bb", "cc", "dd"])
        probs = {
            ("s1", 1, 1): 1.0, ("s1", 2, 4): 1.0,
            ("s1", 1, 2): 1.0, ("s1", 3, 4): 1.0,
            ("s1", 1, 3): 1.0, ("s1", 4, 4): 1.0,
        }
        seg = segment_by_scores(sent, ScoreTable(probabilities=probs), WIDE)
        assert seg.cuts() == (1,)

    def test_scores_for_other_sentences_do_not_leak(self):
        sent = _words("s1", ["aa", "bb", "cc", "dd"])
        table = ScoreTable(probabilities={("s9", 1, 2): 1.0, ("s9", 3, 4): 1.0})
        seg = segment_by_scores(sent, table, WIDE, epsilon=0.01)
        assert seg.cuts() == ()

    def test_span_budget_is_respected(self):
        sent = _words("s1", ["aaaa", "bbbb", "cccc", "dddd"])
        table = ScoreTable(probabilities={("s1", 1, 4): 1.0})
        seg = segment_by_scores(sent, table, SpanConfig(max_chars=9, target_chars=6))
        assert all(len(r.text) <= 9 for r in seg.rhesis)

    def test_matches_exhaustive_search(self):
        rng = random.Random(808)
        for _ in range(60):
            sent = random_sentence(rng, 3, 7, sent_id="rx")
            n = len(sent.tokens)
            probs = {}
            for s in range(1, n + 1):
                for e in range(s, n + 1):
                    if rng.random() < 0.7:
                        probs[("rx", s, e)] = rng.choice(
                            [0.05, 0.2, 0.5, 0.8, 0.95, 1.0])
            table = ScoreTable(probabilities=probs)
            epsilon = 0.01

            def term(a, b):
                p = table.get("rx", a, b)
                return scaled(math.log(max(p if p is not None else epsilon, 1e-300)))

            best = None
            for k in range(n):
                for cuts in itertools.combinations(range(1, n), k):
                    bounds = (0, *cuts, n)
                    total = sum(term(a + 1, b) for a, b in zip(bounds, bounds[1:]))
                    if best is None or total > best[0]:
                        best = (total, cuts)
            seg = segment_by_scores(sent, table, WIDE, epsilon=epsilon)
            bounds = (0, *seg.cuts(), n)
            got = sum(term(a + 1, b) for a, b in zip(bounds, bounds[1:]))
            assert got == best[0]
            assert seg.cuts() == best[1]
