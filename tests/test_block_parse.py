"""``parse_conllu`` reads plain blocks from batch cells and every other block line by line.

With the line reader (``_read_lines``) and ``Sentence._build``'s per-token
checks (``_check_tokens``) patched to raise, the bundled fixture and the
unnamed documents, LF or CRLF, must still parse, so the batch path cannot go
dead unnoticed.  Documents the line reader takes (multiword ranges and empty
nodes, a comment between word rows, a blank-looking separator line, odd but
valid ids, a block past the id table, blocks of only ranges) must parse to
the reference's sentences with only the per-token checks patched.  Rows
with every kind of bad row, through the public parser, raise the
reference's error at its line.
"""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_reference
from rhesis import RhesisError, Sentence, Token, corpus
from rhesis.errors import ParseError
from rhesis.corpus import parse_conllu


def _row(ident, form, head, misc="_"):
    return "\t".join([str(ident), form, "_", "X", "_", "_", str(head),
                      "root" if head == 0 else "dep", "_", misc])


# French contractions as multiword ranges, an empty node, MISC padding
RANGES = "\n".join([
    "# sent_id = r1",
    "# text = Il va du marché au port.",
    _row(1, "Il", 2),
    _row(2, "va", 0),
    _row("3-4", "du", "_"),
    _row(3, "de", 5),
    _row(4, "le", 5),
    _row(5, "marché", 2),
    _row("5.1", "e", "_"),
    _row("6-7", "au", "_"),
    _row(6, "à", 8),
    _row(7, "le", 8),
    _row(8, "port", 2, "SpaceAfter=No"),
    _row(9, ".", 2, " _ "),
    "",
    "# sent_id = r2",
    _row("1-2", "Du", "_"),
    _row(1, "De", 2),
    _row(2, "le", 3),
    _row(3, "pain", 0, "SpaceAfter=No"),
    _row(4, ".", 3),
    _row("4.1", "e", "_"),
    "",
]) + "\n"

# no sent_id comments: ordinal ids, extra blank lines, no final newline
UNNAMED = "\n".join([
    "# text = Le chat dort.",
    _row(1, "Le", 2),
    _row(2, "chat", 3),
    _row(3, "dort", 0, "SpaceAfter=No"),
    _row(4, ".", 3),
    "",
    "",
    "",
    _row(1, "Bien", 0),
    "",
    "# newdoc id = d2",
    _row(1, "Oui", 0),
])


def _fixture() -> str:
    return resources.files("rhesis").joinpath("data/fixture.conllu").read_text(encoding="utf-8")


class _LineLoop(Exception):
    pass


@pytest.fixture
def no_line_loop(monkeypatch):
    def forbidden(*args, **kwargs):
        raise _LineLoop

    monkeypatch.setattr(corpus, "_read_lines", forbidden)
    monkeypatch.setattr(corpus, "_check_tokens", forbidden)


def _facts(sentences):
    return [(s, s.text, s.starts, s.ends, s._tree) for s in sentences]


def _column_facts(sentences):
    return [
        (s.sent_id, tuple(zip(s.forms, s.upos, s.heads, s.deprels, s.miscs)),
         s.text, s.starts, s.ends, s._tree)
        for s in sentences
    ]


def _reference_facts(data):
    return [
        (s.sent_id, tuple((t.form, t.upos, t.head, t.deprel, t.misc) for t in s.tokens),
         s.text, s.starts, s.ends, s._tree)
        for s in corpus_reference.parse_conllu(data)
    ]


@pytest.mark.parametrize("name", ["fixture", "ranges", "unnamed"])
def test_well_formed_documents_take_the_block_path(name, request):
    if name != "ranges":  # range blocks go to the line reader
        request.getfixturevalue("no_line_loop")
    data = {"fixture": _fixture(), "ranges": RANGES, "unnamed": UNNAMED}[name]
    assert _column_facts(parse_conllu(data)) == _reference_facts(data)


def test_ranges_and_empty_nodes_are_dropped():
    r1, r2 = parse_conllu(RANGES)
    assert r1.forms == ("Il", "va", "de", "le", "marché", "à", "le", "port", ".")
    assert r1.text == "Il va de le marché à le port."
    assert r2.forms == ("De", "le", "pain", ".")
    assert _column_facts([r1, r2]) == _reference_facts(RANGES)


def test_unnamed_sentences_get_ordinal_ids(no_line_loop):
    assert [s.sent_id for s in parse_conllu(UNNAMED)] == ["s1", "s2", "s3"]


def _comment_between(data: str) -> str:
    """A comment line after each block's first word row."""
    out = []
    for line in data.split("\n"):
        out.append(line)
        if line.startswith("1\t"):
            out.append("# between the rows")
    return "\n".join(out)


@pytest.mark.parametrize("variant", ["crlf", "comment"])
@pytest.mark.parametrize("name", ["fixture", "ranges", "unnamed"])
def test_documents_off_the_block_path_parse_to_the_same_sentences(name, variant):
    data = {"fixture": _fixture(), "ranges": RANGES, "unnamed": UNNAMED}[name]
    other = data.replace("\n", "\r\n") if variant == "crlf" else _comment_between(data)
    assert _facts(parse_conllu(other)) == _facts(parse_conllu(data))
    assert _column_facts(parse_conllu(other)) == _reference_facts(other)


def test_a_long_block_past_the_id_table():
    n = 600
    data = "\n".join(_row(i, f"w{i}", 0 if i == 1 else i - 1) for i in range(1, n + 1)) + "\n"
    [sentence] = parse_conllu(data)
    assert sentence.heads == (0, *range(1, n))
    assert sentence.text == " ".join(f"w{i}" for i in range(1, n + 1))
    assert _column_facts([sentence]) == _reference_facts(data)


def test_odd_but_valid_ids_and_heads_parse_as_the_reference_does():
    # "01", " 2" and "+2" are ids and heads as int() reads them
    data = "\n".join([_row("01", "a", "+2"), _row(" 2", "b", 0), _row(3, "c", " 2")]) + "\n"
    assert _column_facts(parse_conllu(data)) == _reference_facts(data)
    assert parse_conllu(data.replace("01", "1").replace(" 2\tb", "2\tb"))[0].heads == (2, 0, 2)


def test_a_comment_between_rows_that_looks_like_a_range_row_is_a_comment():
    # nine tabs and a "-" in its first cell: still a comment, and it names the sentence
    data = "\n".join([_row(1, "a", 0), "# sent_id = x-1" + "\t_" * 9, _row(2, "b", 1)]) + "\n"
    [sentence] = parse_conllu(data)
    assert sentence.sent_id.startswith("x-1\t")
    assert sentence.forms == ("a", "b")
    assert [s.sent_id for s in corpus_reference.parse_conllu(data)] == [sentence.sent_id]


@st.composite
def _tokens(draw):
    """Tokens with blank and spaced forms, SpaceAfter=No, and a tree or any heads."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        heads = [0] * n
        for k, tok in enumerate(order[1:], 1):  # each token under one placed before it
            heads[tok - 1] = order[draw(st.integers(0, k - 1))]
    else:
        heads = draw(st.lists(st.integers(-1, n + 1), min_size=n, max_size=n))
    forms = st.sampled_from(["a", "bb", " c", "d ", "\u00e9\u0301", "", " ", "\xa0"])
    miscs = st.sampled_from(["", "", "SpaceAfter=No", "A|SpaceAfter=No", "SpaceAfter=Nope"])
    return [Token(i, draw(forms), "X", heads[i - 1], "dep", draw(miscs)) for i in range(1, n + 1)]


def _built(cls, tokens):
    try:
        s = cls.from_tokens("s", tokens)
    except RhesisError as exc:
        return type(exc), str(exc)
    return s.text, tuple(s.starts), tuple(s.ends), s._tree


@settings(max_examples=400, deadline=None)
@given(tokens=_tokens())
def test_column_checks_and_layout_agree_with_the_per_token_reference(tokens):
    assert _built(Sentence, tokens) == _built(corpus_reference.Sentence, tokens)


@pytest.fixture
def no_error_namer(monkeypatch):
    def forbidden(*args, **kwargs):
        raise _LineLoop

    monkeypatch.setattr(corpus, "_check_tokens", forbidden)


# ids as int() reads them, in a block that also holds a range and an empty node
ODD_IDS = "\n".join([
    "# sent_id = odd",
    _row("+1", "a", "02"),
    _row("1-2", "ab", "_"),
    _row("02", "b", 0),
    _row("2.1", "e", "_"),
    _row(" 3", "c", "+2"),
    _row("4 ", "d", " 2"),
]) + "\n"

# blocks of only ranges and empty nodes hold no sentence, and their sent_id names none
ONLY_RANGES = "\n".join([
    "# sent_id = r1",
    _row("1-2", "du", "_"),
    _row("1.1", "e", "_"),
    "",
    "# sent_id = r1",
    _row(1, "a", 0),
    "",
    _row("0.1", "e", "_"),
    "",
    _row(1, "b", 0),
]) + "\n"


def _documents():
    plain = {"fixture": _fixture(), "ranges": RANGES, "unnamed": UNNAMED}
    docs = {}
    for name, data in plain.items():
        docs[f"{name}-crlf"] = data.replace("\n", "\r\n")
        docs[f"{name}-crcrlf"] = data.replace("\n", "\r\r\n")
        docs[f"{name}-comment"] = _comment_between(data)
        docs[f"{name}-space-line"] = data.replace("\n\n", "\n \n")
        docs[f"{name}-tab-line"] = data.replace("\n\n", "\n\t\n")
    docs["cr-inside-a-form"] = RANGES.replace("marché", "mar\rché").replace("\n", "\r\n")
    docs["cr-ending-the-text"] = UNNAMED.replace("\n", "\r\n") + "\r"
    docs["odd-ids"] = ODD_IDS
    docs["odd-ids-crlf"] = ODD_IDS.replace("\n", "\r\n")
    docs["only-ranges"] = ONLY_RANGES
    docs["only-ranges-comment"] = ONLY_RANGES.replace(_row("1-2", "du", "_"), _row("1-2", "du", "_") + "\n# c")
    return docs


@pytest.mark.parametrize("name", ["fixture", "ranges", "unnamed"])
def test_crlf_documents_take_the_block_path(name, request):
    if name != "ranges":  # range blocks go to the line reader
        request.getfixturevalue("no_line_loop")
    data = {"fixture": _fixture(), "ranges": RANGES, "unnamed": UNNAMED}[name].replace("\n", "\r\n")
    assert _column_facts(parse_conllu(data)) == _reference_facts(data)


# the variants of the fixture and the unnamed document that every batch accepts
_BATCH_READ = {"fixture-crlf", "unnamed-crlf", "cr-ending-the-text"}


@pytest.mark.parametrize("name", sorted(_documents()))
def test_every_valid_document_is_read_by_the_column_reader(name, no_error_namer, request):
    if name in _BATCH_READ:
        request.getfixturevalue("no_line_loop")
    data = _documents()[name]
    assert _column_facts(parse_conllu(data)) == _reference_facts(data)


_GOOD_IDS = ["{i}", "{i}", "{i}", "0{i}", " {i}", "{i} ", "+{i}"]
_BAD_IDS = ["x", "", " ", "{j}", "{k}", "1_a"]
_GOOD_HEADS = ["0", "1", "7", "-1", "+2", " 3", "02"]
_BAD_HEADS = ["h", "", " ", "1.5", "_"]
_GOOD_FORMS = ["a", " b", "c ", "\xa0d", "#e", "-", "."]
_BAD_FORMS = ["", " ", "\xa0", "  "]
_SKIPPED = ["1-2", "3.1", "-", ".", "x-y", "0.5"]  # ranges and empty nodes, any id with - or .


@st.composite
def _word_rows(draw):
    """Word rows with ranges, empty nodes and every kind of bad row, mostly well formed."""
    rows = []
    word = 0
    for _ in range(draw(st.integers(1, 7))):
        cols = ["_"] * 10
        kind = draw(st.sampled_from(["word"] * 6 + ["skipped", "bad_id", "bad_form", "bad_head",
                                                    "nine", "eleven"]))
        if kind == "skipped":
            cols[0] = draw(st.sampled_from(_SKIPPED))
            cols[1] = draw(st.sampled_from(_GOOD_FORMS + _BAD_FORMS))
            cols[6] = draw(st.sampled_from(_GOOD_HEADS + _BAD_HEADS))
        else:
            word += 1
            ids = _BAD_IDS if kind == "bad_id" else _GOOD_IDS
            cols[0] = draw(st.sampled_from(ids)).format(i=word, j=word + 1, k=word - 1)
            cols[1] = draw(st.sampled_from(_BAD_FORMS if kind == "bad_form" else _GOOD_FORMS))
            cols[6] = draw(st.sampled_from(_BAD_HEADS if kind == "bad_head" else _GOOD_HEADS))
        cols[3] = draw(st.sampled_from(["X", "_"]))
        cols[9] = draw(st.sampled_from(["_", " _ ", "SpaceAfter=No", ""]))
        if kind == "nine":
            cols = cols[:9]
        elif kind == "eleven":
            cols.append("_")
        rows.append("\t".join(cols))
    return rows


def _outcome(data: str):
    """``parse_conllu``'s sentences, or its error's class, message and line."""
    try:
        return _column_facts(parse_conllu(data))
    except RhesisError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _agreement(rows):
    """``_outcome`` of ``rows`` put at line 5, past a one-word block: the reference's, checked."""
    data = "\n".join([_row(1, "a", 0), "", "# sent_id = w", "# text = t", *rows]) + "\n"
    outcome = _outcome(data)
    try:
        assert outcome == _reference_facts(data)
    except RhesisError as exc:
        assert outcome == (type(exc), str(exc), getattr(exc, "line", None))
    return outcome


@settings(max_examples=1500, deadline=None)
@given(rows=_word_rows())
def test_the_parser_refuses_exactly_the_rows_the_reference_refuses(rows):
    _agreement(rows)


def _with(row: str, column: int, cell: str) -> str:
    cells = row.split("\t")
    cells[column] = cell
    return "\t".join(cells)


def test_every_bad_row_kind_at_every_place_is_refused_and_named():
    good = [_row(1, "a", 0), _row("1-2", "ab", "_"), _row(2, "b", 1), _row("2.1", "e", "_"),
            _row(3, "c", 2)]
    first = _agreement([])
    assert len(first) == 1
    assert [s[0] for s in _agreement(good)] == ["s1", "w"]
    assert _agreement([good[1], good[3]]) == first  # only ranges: no sentence
    bad = {
        "nine": lambda r: r.rsplit("\t", 1)[0],
        "eleven": lambda r: r + "\t_",
        "bad_id": lambda r: _with(r, 0, "x"),
        "skip_id": lambda r: _with(r, 0, "9"),
        "bad_form": lambda r: _with(r, 1, " "),
        "bad_head": lambda r: _with(r, 6, "h"),
    }
    for kind, spoil in bad.items():
        for place in (0, 2, 4):
            rows = list(good)
            rows[place] = spoil(rows[place])
            outcome = _agreement(rows)
            assert outcome[0] is ParseError and outcome[2] == 5 + place, (kind, place)


@pytest.mark.parametrize("between", [[], ["# c"]])
def test_a_repeated_ordinal_id_names_the_first_word_line_past_an_empty_node(between):
    # the second block has no sent_id, so it is s2 again; with "# c" it is sorted line by line
    data = "\n".join(["# sent_id = s2", _row(1, "a", 0), "", _row("0.1", "e", "_"), *between,
                      _row(1, "b", 0)]) + "\n"
    with pytest.raises(ParseError) as exc:
        parse_conllu(data)
    with pytest.raises(ParseError) as ref:
        corpus_reference.parse_conllu(data)
    assert (str(exc.value), exc.value.line) == (str(ref.value), ref.value.line)
    assert exc.value.line == 5 + len(between)
