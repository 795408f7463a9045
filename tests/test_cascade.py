"""Tests for the rule cascade and the regrouping pass."""

import dataclasses
import random
import warnings
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    CUT_LEVELS,
    CascadeConfig,
    CutLevel,
    OversizedTokenWarning,
    Rhesis,
    Segmentation,
    Sentence,
    SpanConfig,
    Token,
    cascade_segment,
    chunk_boundaries,
    find_cuts_at_level,
    parse_conllu,
    regroup,
    segmentation_from_spans,
)

import cascade_reference
from helpers import DEPRELS, FORMS, random_segmentation, random_sentence


def _sent(sent_id, rows):
    tokens = [
        Token(index=i, form=form, upos=upos, head=head, deprel=deprel,
              misc="" if space else "SpaceAfter=No")
        for i, (form, upos, head, deprel, space) in enumerate(rows, start=1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


# A long storybook sentence exercising every cascade stage: an oversized
# whole, a comma, coordination, and two subordinate clauses.
STORY = _sent("story", [
    ("She", "PRON", 5, "nsubj", False),
    ("'s", "AUX", 5, "cop", True),
    ("not", "ADV", 5, "advmod", True),
    ("a", "DET", 5, "det", True),
    ("monkey", "NOUN", 0, "root", True),
    ("but", "CCONJ", 17, "cc", True),
    ("if", "SCONJ", 9, "mark", True),
    ("she", "PRON", 9, "nsubj", True),
    ("had", "VERB", 17, "advcl", True),
    ("to", "PART", 11, "mark", True),
    ("be", "VERB", 9, "xcomp", True),
    ("an", "DET", 13, "det", True),
    ("animal", "NOUN", 11, "obj", False),
    (",", "PUNCT", 17, "punct", True),
    ("she", "PRON", 17, "nsubj", False),
    ("'d", "AUX", 17, "aux", True),
    ("be", "VERB", 5, "conj", True),
    ("a", "DET", 19, "det", True),
    ("robin", "NOUN", 17, "obj", True),
    ("because", "SCONJ", 25, "mark", True),
    ("of", "ADP", 25, "case", True),
    ("her", "DET", 25, "det", True),
    ("curly", "ADJ", 25, "amod", True),
    ("red", "ADJ", 25, "amod", True),
    ("hair", "NOUN", 17, "obl", False),
    (".", "PUNCT", 5, "punct", True),
])

CFG = CascadeConfig()


class TestLevels:
    def test_level_table(self):
        names = [level.name for level in CUT_LEVELS]
        assert names == [
            "punctuation", "clause", "priority_preposition",
            "chunk", "other_preposition", "word",
        ]
        assert [level.rank for level in CUT_LEVELS] == [1, 2, 3, 4, 5, 6]

    def test_punctuation_level(self):
        n = len(STORY.tokens)
        cuts = find_cuts_at_level(STORY, (1, n), CUT_LEVELS[0], CFG)
        assert cuts == {14}

    def test_clause_level_cuts_at_clause_onsets(self):
        n = len(STORY.tokens)
        cuts = find_cuts_at_level(STORY, (1, n), CUT_LEVELS[1], CFG)
        # 5: onset of the "be" conjunct subtree, whose leftmost token is the
        # attached "but" (the CCONJ rule lands on the same position); 6:
        # before "if", where the marker and the advcl onset coincide; 19:
        # before "because"
        assert cuts == {5, 6, 19}

    def test_segment_bounds_filter_cuts(self):
        cuts = find_cuts_at_level(STORY, (1, 14), CUT_LEVELS[1], CFG)
        assert cuts == {5, 6}
        cuts = find_cuts_at_level(STORY, (15, 26), CUT_LEVELS[1], CFG)
        assert cuts == {19}

    def test_priority_preposition_level(self):
        rows = [
            ("Elle", "PRON", 2, "nsubj", True),
            ("resta", "VERB", 0, "root", True),
            ("chez", "ADP", 4, "case", True),
            ("elle", "PRON", 2, "obl", True),
            ("pendant", "ADP", 7, "case", True),
            ("la", "DET", 7, "det", True),
            ("tempête", "NOUN", 2, "obl", False),
            (".", "PUNCT", 2, "punct", True),
        ]
        sent = _sent("prio", rows)
        cuts = find_cuts_at_level(sent, (1, 8), CUT_LEVELS[2], CFG)
        assert cuts == {2, 4}
        # the same boundaries are NOT produced by the other-preposition level
        assert find_cuts_at_level(sent, (1, 8), CUT_LEVELS[4], CFG) == set()

    def test_other_preposition_level(self):
        rows = [
            ("Il", "PRON", 2, "nsubj", True),
            ("pense", "VERB", 0, "root", True),
            ("à", "ADP", 4, "case", True),
            ("elle", "PRON", 2, "obl", False),
            (".", "PUNCT", 2, "punct", True),
        ]
        sent = _sent("other", rows)
        assert find_cuts_at_level(sent, (1, 5), CUT_LEVELS[4], CFG) == {2}
        assert find_cuts_at_level(sent, (1, 5), CUT_LEVELS[2], CFG) == set()

    def test_word_level_cuts_everywhere(self):
        assert find_cuts_at_level(STORY, (3, 7), CUT_LEVELS[5], CFG) == {3, 4, 5, 6}


class TestChunkBoundaries:
    def test_function_words_glue_to_heads(self):
        rows = [
            ("Le", "DET", 2, "det", True),
            ("renard", "NOUN", 4, "nsubj", True),
            ("ne", "ADV", 4, "advmod", True),
            ("revint", "VERB", 0, "root", True),
            ("jamais", "ADV", 4, "advmod", True),
            ("dans", "ADP", 8, "case", True),
            ("le", "DET", 8, "det", True),
            ("jardin", "NOUN", 4, "obl", True),
            ("silencieux", "ADJ", 8, "amod", False),
            (".", "PUNCT", 4, "punct", True),
        ]
        sent = _sent("chunk", rows)
        assert chunk_boundaries(sent, (1, 10), CFG) == {2, 3, 4, 5, 9}

    def test_shared_head_glue_pair(self):
        # "dans le" both attach to "jardin" with glue relations: no cut between
        rows = [
            ("dort", "VERB", 0, "root", True),
            ("dans", "ADP", 4, "case", True),
            ("le", "DET", 4, "det", True),
            ("jardin", "NOUN", 1, "obl", False),
            (".", "PUNCT", 1, "punct", True),
        ]
        sent = _sent("pair", rows)
        assert chunk_boundaries(sent, (1, 5), CFG) == {1, 4}

    @pytest.mark.parametrize("segment", [(0, 9), (1, 10), (5, 2)])
    def test_segment_outside_the_sentence_is_refused(self, segment):
        # the bundled fixture's first sentence has 9 tokens
        fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
        sent = parse_conllu(fixture.read_bytes())[0]
        assert len(sent) == 9
        lo, hi = segment
        with pytest.raises(ValueError, match=rf"bad segment \({lo}, {hi}\) for 9 tokens"):
            chunk_boundaries(sent, segment, CFG)


class TestCascadeSegment:
    def test_short_sentence_stays_whole(self):
        rows = [
            ("La", "DET", 2, "det", True),
            ("lune", "NOUN", 3, "nsubj", True),
            ("brillait", "VERB", 0, "root", False),
            (".", "PUNCT", 3, "punct", True),
        ]
        seg = cascade_segment(_sent("court", rows), CFG)
        assert seg.spans() == ((1, 4),)

    def test_story_sentence_trace(self):
        assert STORY.text == (
            "She's not a monkey but if she had to be an animal,"
            " she'd be a robin because of her curly red hair."
        )
        seg = cascade_segment(STORY, CFG)
        assert seg.spans() == ((1, 5), (6, 6), (7, 14), (15, 19), (20, 26))
        grouped = regroup(STORY, seg, CFG)
        assert [r.text for r in grouped.rhesis] == [
            "She's not a monkey but",
            "if she had to be an animal, she'd be a robin",
            "because of her curly red hair.",
        ]
        assert all(len(r.text) <= CFG.span.max_chars for r in grouped.rhesis)

    def test_pieces_recurse_from_the_next_level(self):
        # After the comma split, the right piece still misses the span and is
        # resolved by deeper levels, never by re-running punctuation.
        rows = [
            ("Oui", "INTJ", 6, "discourse", False),
            (",", "PUNCT", 6, "punct", True),
            ("elle", "PRON", 6, "nsubj", True),
            ("chantait", "VERB", 6, "aux", True),  # glue: stays with the verb
            ("souvent", "ADV", 6, "advmod", True),
            ("racontait", "VERB", 0, "root", True),
            ("des", "DET", 8, "det", True),
            ("merveilles", "NOUN", 6, "obj", True),
            ("incomparables", "ADJ", 8, "amod", False),
            (".", "PUNCT", 6, "punct", True),
        ]
        sent = _sent("recurse", rows)
        assert len(sent.text) > CFG.span.max_chars
        seg = cascade_segment(sent, CFG)
        assert seg.cuts()[0] == 2  # first split after the comma
        for r in seg.rhesis:
            assert len(r.text) <= CFG.span.max_chars

    def test_oversized_token_warns_and_is_isolated(self):
        huge = "x" * 60
        rows = [
            ("Il", "PRON", 2, "nsubj", True),
            ("dit", "VERB", 0, "root", True),
            (huge, "NOUN", 2, "obj", False),
            (".", "PUNCT", 2, "punct", True),
        ]
        sent = _sent("huge", rows)
        with pytest.warns(OversizedTokenWarning):
            seg = cascade_segment(sent, CFG)
        assert (3, 3) in seg.spans()

    def test_every_piece_fits_or_is_single_token(self):
        rng = random.Random(90125)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OversizedTokenWarning)
            for _ in range(300):
                sent = random_sentence(rng, 3, 14)
                seg = cascade_segment(sent, CFG)
                for (a, b), r in zip(seg.spans(), seg.rhesis):
                    assert len(r.text) <= CFG.span.max_chars or a == b


class TestRegroup:
    def test_merges_while_budget_allows(self):
        rows = [
            ("Un", "DET", 2, "det", True),
            ("mot", "NOUN", 0, "root", True),
            ("puis", "ADV", 4, "advmod", True),
            ("deux", "NUM", 2, "conj", False),
            (".", "PUNCT", 2, "punct", True),
        ]
        sent = _sent("merge", rows)
        pieces = segmentation_from_spans(sent, [(1, 1), (2, 2), (3, 4), (5, 5)])
        grouped = regroup(sent, pieces, CFG)
        assert grouped.spans() == ((1, 5),)
        assert grouped.rhesis[0].text == "Un mot puis deux."

    def test_never_merges_past_sentence_final_punctuation(self):
        rows = [
            ("Oui", "INTJ", 0, "root", False),
            (".", "PUNCT", 1, "punct", True),
            ("Non", "INTJ", 1, "parataxis", False),
            ("!", "PUNCT", 3, "punct", True),
        ]
        sent = _sent("stop", rows)
        pieces = segmentation_from_spans(sent, [(1, 2), (3, 4)])
        grouped = regroup(sent, pieces, CFG)
        assert grouped.spans() == ((1, 2), (3, 4))

    def test_comma_boundary_still_merges(self):
        rows = [
            ("Oui", "INTJ", 0, "root", False),
            (",", "PUNCT", 1, "punct", True),
            ("non", "INTJ", 1, "parataxis", False),
            ("!", "PUNCT", 3, "punct", True),
        ]
        sent = _sent("go", rows)
        pieces = segmentation_from_spans(sent, [(1, 2), (3, 4)])
        grouped = regroup(sent, pieces, CFG)
        assert grouped.spans() == ((1, 4),)

    def test_respects_span_budget(self):
        cfg = CascadeConfig(span=SpanConfig(max_chars=10, target_chars=8))
        rows = [
            ("abcdefgh", "NOUN", 0, "root", True),
            ("ijklmnop", "NOUN", 1, "conj", True),
            ("qr", "NOUN", 1, "conj", True),
        ]
        sent = _sent("budget", rows)
        pieces = segmentation_from_spans(sent, [(1, 1), (2, 2), (3, 3)])
        grouped = regroup(sent, pieces, cfg)
        # 8+1+8 > 10 keeps the first two apart; 8+1+2 > 10 keeps the last too
        assert grouped.spans() == ((1, 1), (2, 2), (3, 3))

    def test_word_count_mode(self):
        cfg = CascadeConfig(span=SpanConfig(max_chars=3, target_chars=2, count_mode="words"))
        rows = [
            ("un", "X", 0, "root", True),
            ("deux", "X", 1, "dep", True),
            ("trois", "X", 1, "dep", True),
            ("quatre", "X", 1, "dep", True),
        ]
        sent = _sent("mots", rows)
        pieces = segmentation_from_spans(sent, [(1, 1), (2, 2), (3, 3), (4, 4)])
        grouped = regroup(sent, pieces, cfg)
        assert grouped.spans() == ((1, 3), (4, 4))

    @pytest.mark.parametrize(
        "spans",
        [[(1, 3), (4, 7)], [(1, 7)], [(1, 7), (8, 9)], [(1, 2), (3, 7), (8, 8)]],
        ids=["last-merge", "single", "first", "middle"],
    )
    def test_units_past_the_last_token_raise_value_error(self, spans):
        rows = [(f"m{i}", "X", 0 if i == 1 else 1, "dep", True) for i in range(1, 7)]
        sent = _sent("six", rows)
        foreign = Segmentation("six", tuple(Rhesis(a, b, "x") for a, b in spans))
        with pytest.raises(ValueError):
            regroup(sent, foreign, CFG)

    @pytest.mark.parametrize(
        "sent_id, spans, match",
        [
            ("conte1-s01", [(1, 2), (4, 9)], r"do not tile the sentence at \(4, 9\)"),
            ("conte1-s01", [(1, 2), (2, 9)], r"do not tile the sentence at \(2, 9\)"),
            ("other", [(1, 2), (3, 9)], "segmentation of 'other' given for 'conte1-s01'"),
        ],
        ids=["gap", "overlap", "foreign-id"],
    )
    def test_a_segmentation_that_does_not_tile_the_sentence_raises(self, sent_id, spans, match):
        # each of these would merge into one unit, so no later check sees the fault
        fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
        sent = parse_conllu(fixture.read_bytes())[0]
        seg = Segmentation(sent_id, tuple(Rhesis(a, b, sent.span_text(a, b)) for a, b in spans))
        with pytest.raises(ValueError, match=match):
            regroup(sent, seg, CFG)

    def test_idempotent_on_random_cascade_output(self):
        rng = random.Random(5150)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OversizedTokenWarning)
            for _ in range(200):
                sent = random_sentence(rng, 3, 14)
                once = regroup(sent, cascade_segment(sent, CFG), CFG)
                twice = regroup(sent, once, CFG)
                assert once.spans() == twice.spans()


class TestCascadeConfigValidation:
    def test_empty_rule_sets_rejected(self):
        with pytest.raises(ValueError):
            CascadeConfig(cut_punctuation=frozenset())
        with pytest.raises(ValueError):
            CascadeConfig(clause_deprels=frozenset())

    def test_custom_punctuation_set(self):
        cfg = CascadeConfig(cut_punctuation=frozenset({";"}))
        rows = [
            ("a", "X", 3, "dep", False),
            (",", "PUNCT", 3, "punct", True),
            ("b", "X", 0, "root", False),
            (";", "PUNCT", 3, "punct", True),
            ("c", "X", 3, "conj", True),
        ]
        sent = _sent("custom", rows)
        assert find_cuts_at_level(sent, (1, 5), CUT_LEVELS[0], cfg) == {4}


class TestUnknownLevel:
    def test_unknown_level_is_named(self):
        with pytest.raises(ValueError, match="unknown cut level 'sentence'"):
            find_cuts_at_level(STORY, (1, 5), CutLevel(7, "sentence"), CFG)

    def test_bad_segment_is_reported_first(self):
        with pytest.raises(ValueError, match=r"bad segment \(0, 5\)"):
            find_cuts_at_level(STORY, (0, 5), CutLevel(7, "sentence"), CFG)


# Forms the random sentences lack: spaced inside and at the edges, capitalised.
_ODD_FORMS = ["de la", "a  b", " porte ", "Dans", "SUR"]

_INVENTORY = {
    "priority_prepositions": st.frozensets(st.sampled_from(FORMS), min_size=1),
    "clause_deprels": st.frozensets(st.sampled_from(DEPRELS), min_size=1),
    "glue_deprels": st.frozensets(st.sampled_from(DEPRELS), min_size=1),
    "cut_punctuation": st.frozensets(st.sampled_from(FORMS), min_size=1),
}

_TIGHT_SPAN = st.sampled_from([("characters", 30), ("words", 5)]).flatmap(
    lambda mode_top: st.integers(1, mode_top[1]).map(
        lambda m: SpanConfig(max_chars=m, target_chars=1, count_mode=mode_top[0])
    )
)


def _with_odd_forms(sentence, odd):
    tokens = [
        dataclasses.replace(tok, form=odd[tok.index]) if tok.index in odd else tok
        for tok in sentence.tokens
    ]
    return Sentence.from_tokens(sentence.sent_id, tokens)


def _run(segment, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seg = segment(*args)
    return seg, [str(w.message) for w in caught if issubclass(w.category, OversizedTokenWarning)]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    odd=st.dictionaries(st.integers(1, 40), st.sampled_from(_ODD_FORMS), max_size=8),
    inventory=st.fixed_dictionaries(_INVENTORY),
    span=_TIGHT_SPAN,
)
def test_sentence_wide_levels_equal_the_per_piece_cascade(seed, odd, inventory, span):
    sent = _with_odd_forms(random_sentence(random.Random(seed), 1, 40), odd)
    cfg = CascadeConfig(span=span, **inventory)
    got, got_warned = _run(cascade_segment, sent, cfg)
    want, want_warned = _run(cascade_reference.cascade_segment, sent, cfg)
    assert got == want
    assert got_warned == want_warned
    assert regroup(sent, got, cfg) == cascade_reference.regroup(sent, want, cfg)
    pieces = random_segmentation(random.Random(seed), sent)
    assert regroup(sent, pieces, cfg) == cascade_reference.regroup(sent, pieces, cfg)
    n = len(sent.tokens)
    for level in CUT_LEVELS:
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                assert find_cuts_at_level(sent, (lo, hi), level, cfg) == (
                    cascade_reference.find_cuts_at_level(sent, (lo, hi), level, cfg)
                ), (level.name, lo, hi)
