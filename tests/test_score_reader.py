"""``load_scores`` against the line-by-line reader it replaced, and the
contract of the table it returns.

``_oracle_load_scores`` is the previous ``load_scores``, verbatim: one line
at a time into a dict keyed by ``(sentence_id, start, end)``, grouped on
first use.  Over random tables written with blank and whitespace-only lines,
CRLF and CR runs, a byte-order mark and repeated keys, the loaded table must
equal it in its grouped view, ``len``, ``get`` and the duplicate warning,
and one bad line of each kind must raise the same error at the same line.
A loaded table must also answer ``==``, ``repr``, ``len``, ``get``,
``probabilities`` and ``dataclasses.replace`` as that table did, and a
``segment --method scores`` call must never build its key dict.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import warnings
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    FormatError,
    ScoreTable,
    SpanConfig,
    align_gold,
    load_scores,
    parse_conllu,
    parse_gold,
    segment_by_scores,
)
from rhesis import cli, dataset
from rhesis.cli import main
from rhesis.corpus import _decoded

from helpers import dense_scores, scores_tsv


def _oracle_load_scores(data: str | bytes) -> ScoreTable:
    """Parse a TSV score stream: sentence_id, start, end, probability.

    Blank lines are skipped.  Duplicate keys keep the last value, and one
    warning counts them; malformed lines, spans that are not
    ``1 <= start <= end`` and out-of-range probabilities fail with the line
    number.
    """
    data = _decoded(data, FormatError)
    table: dict[tuple[str, int, int], float] = {}
    duplicates, first = 0, 0
    for lineno, line in enumerate(data.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise FormatError(
                f"expected 4 tab-separated fields, got {len(fields)}", line=lineno
            )
        sentence_id = fields[0]
        try:
            start, end = int(fields[1]), int(fields[2])
            probability = float(fields[3])
        except ValueError:
            raise FormatError(f"unreadable record {line!r}", line=lineno) from None
        if not 1 <= start <= end:
            raise FormatError(f"span ({start}, {end}) is not 1 <= start <= end", line=lineno)
        if not math.isfinite(probability) or not 0.0 <= probability <= 1.0:
            raise FormatError(
                f"probability {fields[3]} outside [0, 1]", line=lineno
            )
        key = (sentence_id, start, end)
        if key in table:
            duplicates += 1
            first = first or lineno
        table[key] = probability
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate score rows (the first on line {first}), keeping the last"
        )
    return ScoreTable(probabilities=table)


def _read(reader, data):
    """``reader(data)`` and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = reader(data)
    return table, [str(w.message) for w in caught]


def _error(reader, data) -> tuple[str, int | None]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an error line must come before any warning
        with pytest.raises(FormatError) as caught:
            reader(data)
    return str(caught.value), caught.value.line


_PROBABILITIES = st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def _rows(draw):
    """Score lines: (sentence_id, start, end, probability) as text."""
    count = draw(st.integers(0, 30))
    keys, rows = [], []
    for _ in range(count):
        if keys and draw(st.integers(0, 5)) == 0:  # a repeated key, maybe a new value
            sid, a, b = draw(st.sampled_from(keys))
        else:
            sid = draw(st.sampled_from(["s", "t", "long-00001", "é", "s s"]))
            a = draw(st.integers(1, 6))
            b = a + draw(st.integers(0, 4))
        keys.append((sid, a, b))
        p = draw(_PROBABILITIES)
        cell = draw(st.sampled_from([repr(p), f"{p:.6f}", f"{p:e}", f" {p!r} "]))
        start = draw(st.sampled_from([str(a), f"0{a}", f" {a}", f"+{a}"]))
        rows.append((sid, start, str(b), cell))
    return rows


@st.composite
def _texts(draw, rows):
    """``rows`` as TSV, with blank lines, line ends, a BOM and bytes drawn."""
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "   ", " \t ", "\t"]), max_size=2))
        lines.append("\t".join(row))
    lines += draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n", "\r\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end, "\r"]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_loaded_table_equals_the_line_reader(data):
    text = data.draw(_texts(data.draw(_rows())))
    want, want_warnings = _read(_oracle_load_scores, text)
    got, got_warnings = _read(load_scores, text)
    assert got_warnings == want_warnings
    assert len(got_warnings) <= 1
    assert got._rows() == want._rows()
    assert len(got) == len(want)
    for key, p in want.probabilities.items():
        assert got.get(*key) == p
    assert got.get("absent", 1, 1) is None


_BAD_LINES = {
    "field count": ["s\t1\t2", "s\t1\t2\t0.5\tx", "s", "s 1 2 0.5"],
    "unreadable": ["s\tone\t2\t0.5", "s\t1\t2.0\t0.5", "s\t1\t2\thalf", "s\t1\t2\t"],
    "span": ["s\t0\t2\t0.5", "s\t3\t2\t0.5", "s\t-1\t-1\t0.5"],
    "probability": ["s\t1\t2\t1.5", "s\t1\t2\tnan", "s\t1\t2\tinf", "s\t1\t2\t-0.1"],
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_BAD_LINES)))
def test_a_bad_line_fails_at_its_line_with_the_same_error(data, kind):
    rows = data.draw(_rows())
    bad = data.draw(st.sampled_from(_BAD_LINES[kind]))
    at = data.draw(st.integers(0, len(rows)))
    lines = ["\t".join(row) for row in rows]
    lines.insert(at, bad)
    if data.draw(st.booleans()):
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    text = "\n".join(lines) + "\n"
    message, line = _error(_oracle_load_scores, text)
    assert _error(load_scores, text) == (message, line)
    assert line == lines.index(bad) + 1


@pytest.mark.parametrize(
    "text, message",
    [
        # 3 + 5 cells: a multiple of four, yet neither row is a record
        ("s\t1\t2\ns\t1\t2\t0.5\tx\n", "line 1: expected 4 tab-separated fields, got 3"),
        # 2 + 6 cells that read as two valid records if taken four at a time
        ("s\t1\n1\t1\t1\t1\t1\t1\n", "line 1: expected 4 tab-separated fields, got 2"),
        ("s\t1\t2\t0.5\t1\nt\t1\t1\n", "line 1: expected 4 tab-separated fields, got 5"),
    ],
)
def test_misaligned_rows_fail_at_the_first_bad_line(text, message):
    assert _error(load_scores, text) == _error(_oracle_load_scores, text) == (message, 1)


_TABLE = "s1\t1\t2\t0.5\ns2\t1\t1\t0\n\ns1\t3\t4\t1\ns1\t1\t1\t0.25\n"


class TestLoadedContract:
    """A loaded table reads, compares and copies as the line reader's did."""

    def test_equality_repr_len_get_and_probabilities(self):
        loaded, want = load_scores(_TABLE), _oracle_load_scores(_TABLE)
        assert loaded == want and want == loaded
        assert loaded == load_scores("\n".join(reversed(_TABLE.split("\n"))))
        assert loaded != load_scores(_TABLE.replace("0.25", "0.3"))
        assert repr(load_scores(_TABLE)) == repr(want)
        assert len(load_scores(_TABLE)) == len(want) == 4
        assert load_scores(_TABLE).get("s1", 3, 4) == 1.0
        assert load_scores(_TABLE).get("s1", 3, 5, 0.5) == 0.5
        probabilities = load_scores(_TABLE).probabilities
        assert list(probabilities.items()) == list(want.probabilities.items())
        assert sorted(probabilities) == [("s1", 1, 1), ("s1", 1, 2), ("s1", 3, 4), ("s2", 1, 1)]

    def test_a_duplicate_keeps_its_first_place_and_last_value(self):
        text = _TABLE + "s1\t1\t2\t0.75\n"
        with pytest.warns(UserWarning, match="1 duplicate score rows"):
            loaded = load_scores(text)
        with pytest.warns(UserWarning):
            want = _oracle_load_scores(text)
        assert list(loaded.probabilities.items()) == list(want.probabilities.items())
        assert loaded.get("s1", 1, 2) == 0.75

    def test_the_dict_is_read_once_and_the_view_is_kept(self):
        loaded = load_scores(_TABLE)
        rows = loaded._rows()
        assert loaded.probabilities is loaded.probabilities
        assert loaded._rows() is rows
        assert len(loaded) == 4

    def test_replace_gives_a_hand_built_table_with_a_fresh_view(self):
        loaded = load_scores(_TABLE)
        copy = dataclasses.replace(loaded)
        assert copy == loaded and copy._grouped is None
        assert copy._rows() == loaded._rows()
        flipped = {key: 1.0 - p for key, p in _oracle_load_scores(_TABLE).probabilities.items()}
        other = dataclasses.replace(load_scores(_TABLE), probabilities=flipped)
        assert other.probabilities is flipped
        sentence = parse_conllu(resources.files("rhesis").joinpath("data", "fixture.conllu")
                                .read_bytes())[0]
        assert segment_by_scores(sentence, other, SpanConfig()) == segment_by_scores(
            sentence, ScoreTable(probabilities=dict(flipped)), SpanConfig()
        )

    def test_pickle_round_trips(self):
        loaded = load_scores(_TABLE)
        again = pickle.loads(pickle.dumps(loaded))
        assert again == loaded and again._rows() == loaded._rows()

    def test_an_unknown_attribute_is_still_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'ScoreTable' object has no attribute 'rows'"):
            load_scores(_TABLE).rows  # noqa: B018


FIXTURE = resources.files("rhesis").joinpath("data")
CONLLU = FIXTURE.joinpath("fixture.conllu").read_bytes()


def _fixture_corpus():
    sentences = parse_conllu(CONLLU)
    return align_gold(sentences, parse_gold(FIXTURE.joinpath("fixture.rhz").read_bytes()))


def _segment(tmp_path, capsys, table: str) -> tuple[str, str]:
    conllu, scores = tmp_path / "in.conllu", tmp_path / "scores.tsv"
    conllu.write_bytes(CONLLU)
    scores.write_text(table, encoding="utf-8")
    assert main(["segment", "--input", str(conllu), "--method", "scores",
                 "--scores", str(scores)]) == 0
    out, err = capsys.readouterr()
    return out, err.replace(str(scores), "<scores>")


class TestNoKeyDict:
    """``segment --method scores`` on a loaded table never builds the
    ``(sentence_id, start, end)`` dict: the only builder is ``_read_lines``,
    and it runs only when something asks for ``probabilities``."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls, read_lines = [], dataset._read_lines

        def counting(text):
            calls.append(len(text))
            return read_lines(text)

        monkeypatch.setattr(dataset, "_read_lines", counting)
        return calls

    @pytest.fixture
    def loaded(self, monkeypatch):
        tables, load = [], cli.load_scores

        def keeping(data):
            tables.append(load(data))
            return tables[-1]

        monkeypatch.setattr(cli, "load_scores", keeping)
        return tables

    def test_a_scores_call_builds_none(self, built, loaded, tmp_path, capsys):
        probs = dense_scores(_fixture_corpus(), seed=3)
        sid = next(iter(probs))[0]
        sparse = {key: p for key, p in probs.items() if key[0] != sid}  # units left to epsilon
        sparse[("absent", 1, 2)] = 0.5
        _, err = _segment(tmp_path, capsys, scores_tsv(sparse))
        assert "score rows name no input sentence" in err and "scored epsilon" in err
        assert built == []
        (table,) = loaded
        assert table.get(*next(iter(sparse))) == next(iter(sparse.values()))
        assert table.get("absent", 1, 2) == 0.5
        assert len(built) == 1  # the first read built it, and the table kept it

    def test_a_repeated_key_reads_the_lines_once(self, built, tmp_path, capsys):
        table = "s1\t1\t2\t0.5\ns1\t1\t2\t0.25\n"
        _, err = _segment(tmp_path, capsys, table)
        assert "1 duplicate score rows (the first on line 2), keeping the last" in err
        assert len(built) == 1


def test_a_dense_table_reads_like_the_hand_built_one(monkeypatch, tmp_path, capsys):
    """Every admissible span scored, as a classifier scores them at inference:
    loading it gives the same output and warnings as the same rows built by
    hand.  One sentence's gold spans are left out, so units score epsilon,
    and two rows name no sentence or end past the last token."""
    corpus = _fixture_corpus()
    probs = dense_scores(corpus, seed=11)
    first = corpus.entries[0]
    for a, b in first.gold.spans():
        del probs[(first.sentence.sent_id, a, b)]
    probs[("absent", 1, 3)] = 0.9
    probs[(first.sentence.sent_id, 1, len(first.sentence) + 1)] = 0.9
    assert len(probs) > 5 * sum(len(entry.sentence) for entry in corpus)
    text = scores_tsv(probs)
    assert load_scores(text) == ScoreTable(probabilities=probs)
    loaded = _segment(tmp_path, capsys, text)
    monkeypatch.setattr(cli, "load_scores", lambda data: ScoreTable(probabilities=dict(probs)))
    assert _segment(tmp_path, capsys, text) == loaded
    assert "1 score rows name no input sentence, 1 end past" in loaded[1]
    assert "chosen units had no score row and scored epsilon" in loaded[1]
