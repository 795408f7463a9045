"""The columnar ingestion against the Token-built one it replaced.

``corpus_reference`` keeps the previous ``parse_conllu``, ``Sentence`` and
``_align_sentence``.  Over generated CoNLL-U (multiword ranges, empty nodes,
CRLF, ``SpaceAfter=No``, comments, ``sent_id`` lines, and every kind of bad
row or tree), both parsers must give equal sentences, offsets and traversals
included, or the same exception with the same message and line.  Over gold
lines that are exact, re-spaced, cut inside a token, too short or too long,
both aligners must give the same spans or the same error.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus_reference
from rhesis.corpus import _align_sentence, parse_conllu
from rhesis.errors import RhesisError

_FORMS = st.sampled_from(["le", "chat", "l'", "-on", ",", ".", "a b", " x", "y ", "é́", "#t", "\\u"])
_MISCS = st.sampled_from(["_", "_", "SpaceAfter=No", "A=B|SpaceAfter=No", "SpaceAfter=Nope", " _ "])
_COMMENTS = st.sampled_from(
    ["# text = t", "# sent_id = a", "# sent_id = s2", "#sent_id=a", "# sent_id", "# newdoc id = d", "#"]
)
# how a word row goes wrong; "ok" dominates so that most drawn sentences parse
_ROW_KINDS = st.sampled_from(
    ["ok"] * 60 + ["bad_id", "skip_id", "repeat_id", "blank_form", "bad_head", "nine", "eleven"]
)
_BREAKS = st.sampled_from(["", "", " ", "\t", "\r"])


def _row(cols: list[str], kind: str) -> str:
    if kind == "nine":
        cols = cols[:9]
    elif kind == "eleven":
        cols = [*cols, "_"]
    return "\t".join(cols)


@st.composite
def _heads(draw, n: int) -> list[int]:
    """Half the time a tree (each token under one placed before it), a third of
    the time one root and any other heads (cycles are common), else any heads."""
    mode = draw(st.integers(0, 5))
    if mode > 2:
        order = draw(st.permutations(range(1, n + 1)))
        heads = [0] * n
        for k, tok in enumerate(order[1:], 1):
            heads[tok - 1] = order[draw(st.integers(0, k - 1))]
        return heads
    if mode > 0 and n > 1:
        root = draw(st.integers(1, n))
        return [
            0 if i == root else draw(st.sampled_from([h for h in range(1, n + 1) if h != i]))
            for i in range(1, n + 1)
        ]
    return draw(st.lists(st.integers(-1, n + 1), min_size=n, max_size=n))


@st.composite
def _block(draw) -> list[str]:
    lines = list(draw(st.lists(_COMMENTS, max_size=2)))
    n = draw(st.integers(0, 6))
    heads = draw(_heads(n)) if n else []
    for i in range(1, n + 1):
        if draw(st.integers(0, 7)) == 0:
            lines.append(_row([f"{i}-{i + 1}", "du", *["_"] * 8], draw(_ROW_KINDS)))
        kind = draw(_ROW_KINDS)
        ident = {"bad_id": "x", "skip_id": str(i + 1), "repeat_id": str(i - 1)}.get(kind, str(i))
        form = draw(st.sampled_from(["", " "])) if kind == "blank_form" else draw(_FORMS)
        head = "h" if kind == "bad_head" else str(heads[i - 1])
        deprel = "root" if heads[i - 1] == 0 else "dep"
        cols = [ident, form, "_", draw(st.sampled_from(["X", "PUNCT"])), "_", "_", head, deprel, "_",
                draw(_MISCS)]
        lines.append(_row(cols, kind))
        if draw(st.integers(0, 7)) == 0:
            lines.append(_row([f"{i}.1", "e", *["_"] * 8], "ok"))
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(_COMMENTS))
    return lines


@st.composite
def _conllu(draw) -> str:
    lines: list[str] = []
    for block in draw(st.lists(_block(), max_size=4)):
        lines += block
        lines.append(draw(_BREAKS))
    if lines and draw(st.booleans()):
        lines.pop()  # no break after the last sentence
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines)


def _outcome(parse, data: str):
    try:
        sentences = parse(data)
    except RhesisError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        (
            s.sent_id,
            tuple((t.index, t.form, t.upos, t.head, t.deprel, t.misc) for t in s.tokens),
            s.text,
            s.starts,
            s.ends,
            s._tree,
        )
        for s in sentences
    ]


def _words(*rows: str) -> str:
    """Rows ``id form head`` (``-`` for a root-less range or empty node) as CoNLL-U lines."""
    lines = []
    for row in rows:
        ident, form, head = row.split(" ")
        lines.append("\t".join([ident, form, "_", "X", "_", "_", head, "dep", "_", "_"]))
    return "\n".join(lines)


@settings(max_examples=600, deadline=None)
@given(data=_conllu())
# a repeated ordinal id is reported at the first word's line, past ranges, empty nodes and comments
@example(data="# sent_id = s2\n" + _words("1 a 0") + "\n\n# c\n" + _words("1-2 ab _", "1 a 0", "2 b 1"))
@example(data=_words("1 a 0") + "\n\n" + _words("0.1 e _", "1 a 0") + "\n# sent_id = s1\n")
# a sent_id comment after the words still names the sentence and its line
@example(data=_words("1 a 0") + "\n# sent_id = x\n\n# sent_id = x\n# sent_id = y\n" + _words("1 a 0"))
def test_parse_equals_the_token_built_parse(data):
    assert _outcome(parse_conllu, data) == _outcome(corpus_reference.parse_conllu, data)


_FAILURES = (
    "columns", "unreadable token id", "out of sequence", "whitespace-only form", "unreadable head",
    "duplicate sentence id", "out of range", "roots", "cycle",
)


def test_the_generator_reaches_sentences_and_every_failure():
    """The property above sees parsed sentences and each kind of error, not only some."""
    seen = set()

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(data=_conllu())
    def collect(data):
        got = _outcome(corpus_reference.parse_conllu, data)
        if isinstance(got, list):
            seen.add("parsed" if got else "none")
        else:
            seen.update(kind for kind in _FAILURES if kind in got[1])

    collect()
    assert seen == {"parsed", "none", *_FAILURES}


def _respaced(line: str, draw) -> str:
    runs = st.sampled_from([" ", "  ", "\t", " \t", "\r", " \r "])
    out = []
    for ch in line:
        out.append(draw(runs) if ch == " " else ch)
    return draw(st.sampled_from(["", " ", "\t"])) + "".join(out) + draw(st.sampled_from(["", " ", "\r"]))


@st.composite
def _sentence_and_lines(draw):
    n = draw(st.integers(1, 8))
    forms = [draw(_FORMS) for _ in range(n)]
    miscs = [draw(_MISCS) for _ in range(n)]
    rows = [
        "\t".join([str(i), form, "_", "X", "_", "_", str(i - 1), "root" if i == 1 else "dep", "_", misc])
        for i, (form, misc) in enumerate(zip(forms, miscs), 1)
    ]
    data = "\n".join(rows) + "\n"
    new, old = parse_conllu(data)[0], corpus_reference.parse_conllu(data)[0]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    lines = [new.span_text(a + 1, b) for a, b in zip(bounds, bounds[1:])]
    for k in range(len(lines)):
        how = draw(st.sampled_from(["exact"] * 6 + ["respaced", "cut", "shorter", "longer", "empty"]))
        line = lines[k]
        if how == "respaced":
            line = _respaced(line, draw)
        elif how == "cut" and len(line) > 1:
            line = line[: draw(st.integers(1, len(line) - 1))]
        elif how == "shorter":
            line = line[1:]
        elif how == "longer":
            line = line + draw(st.sampled_from([" le", "x", " ", "le chat"]))
        elif how == "empty":
            line = draw(st.sampled_from(["", " "]))
        lines[k] = line
    if draw(st.integers(0, 5)) == 0:
        lines.pop()  # too few lines
    elif draw(st.integers(0, 5)) == 0:
        lines.append(draw(_FORMS))  # one line too many
    return new, old, lines


def _spans_or_error(align, sentence, lines):
    try:
        return align(sentence, lines).spans()
    except RhesisError as exc:
        return type(exc), str(exc)


@settings(max_examples=800, deadline=None)
@given(drawn=_sentence_and_lines())
def test_align_equals_the_normalizing_align(drawn):
    new, old, lines = drawn
    assert _spans_or_error(_align_sentence, new, lines) == _spans_or_error(
        corpus_reference._align_sentence, old, lines
    )


_MISSES = (
    "empty gold rhesis line", "past the last token", "inside token", "does not match",
    "missing space", "gold covers",
)


def test_the_gold_generator_reaches_inexact_matches_and_every_failure():
    """Lines that are not the exact text still align, and each alignment error occurs."""
    seen = set()

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(drawn=_sentence_and_lines())
    def collect(drawn):
        _, old, lines = drawn
        got = _spans_or_error(corpus_reference._align_sentence, old, lines)
        if isinstance(got, tuple) and isinstance(got[0], type):
            seen.update(kind for kind in _MISSES if kind in got[1])
        elif [old.span_text(a, b) for a, b in got] != lines:
            seen.add("inexact")
        else:
            seen.add("exact")

    collect()
    assert seen == {"exact", "inexact", *_MISSES}
