"""``parse_conllu`` reads well-formed word rows column-wise, without the line loop.

With the line-by-line reading (``_conllu_blocks`` and the per-line loop
``_line_columns``) and ``Sentence._build``'s per-token checks
(``_check_tokens``) patched to raise, well-formed documents must still
parse, so the block path cannot go dead unnoticed.  Documents that leave
the block path (CR line ends, a comment between word rows) must parse to
the same sentences.
"""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_reference
from rhesis import RhesisError, Sentence, Token, corpus
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

    monkeypatch.setattr(corpus, "_conllu_blocks", forbidden)
    monkeypatch.setattr(corpus, "_line_columns", forbidden)
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
def test_well_formed_documents_take_the_block_path(name, no_line_loop):
    data = {"fixture": _fixture(), "ranges": RANGES, "unnamed": UNNAMED}[name]
    assert _column_facts(parse_conllu(data)) == _reference_facts(data)


def test_ranges_and_empty_nodes_are_dropped(no_line_loop):
    r1, r2 = parse_conllu(RANGES)
    assert r1.forms == ("Il", "va", "de", "le", "marché", "à", "le", "port", ".")
    assert r1.text == "Il va de le marché à le port."
    assert r2.forms == ("De", "le", "pain", ".")


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


def test_a_long_block_past_the_id_table(no_line_loop):
    n = 600
    data = "\n".join(_row(i, f"w{i}", 0 if i == 1 else i - 1) for i in range(1, n + 1)) + "\n"
    [sentence] = parse_conllu(data)
    assert sentence.heads == (0, *range(1, n))
    assert sentence.text == " ".join(f"w{i}" for i in range(1, n + 1))


def test_odd_but_valid_ids_and_heads_parse_as_the_reference_does():
    # ids the column test refuses go to the line loop; heads int() reads still count
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
