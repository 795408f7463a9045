"""``parse_conllu`` cuts the word rows of many blocks at once, and still names every error.

Generated multi-block documents mix clean blocks, blocks with multiword
ranges and empty nodes, odd but valid ids, comments between rows, CRLF
line ends and blank-looking separator lines, and run over several batches
(the batch cap is drawn small as well as left at its value).  They must
parse to ``corpus_reference``'s sentences, offsets and traversals
included.  With one defect put into one block (a bad row, a duplicate id,
two roots, a cycle or a blank form) they must raise the reference's
exception with its message and line.  A clean document, and one whose
every block holds a range row and an empty node, is read with one reader
call per batch and never line by line; a comment between rows sends every
block of its batch to the line reader; an unnamed block's id line is its
first word's; and a comment is a sentence id only under the exact key
``sent_id``.
"""

from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_reference
from rhesis import corpus
from rhesis.corpus import parse_conllu
from rhesis.errors import ParseError, RhesisError


def _row(ident, form, head, misc="_"):
    return "\t".join([str(ident), form, "_", "X", "_", "_", str(head),
                      "root" if head == 0 else "dep", "_", misc])


def _outcome(parse, data: str):
    try:
        sentences = parse(data)
    except RhesisError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        (s.sent_id, tuple((t.form, t.upos, t.head, t.deprel, t.misc) for t in s.tokens),
         s.text, s.starts, s.ends, s._tree)
        for s in sentences
    ]


_FORMS = st.sampled_from(["le", "chat", "l'", "-on", ",", ".", "a b", " x", "y ", "#t", "\xa0z"])
_MISCS = st.sampled_from(["_", "_", "_", "SpaceAfter=No", "A=B|SpaceAfter=No", " _ "])
_ODD_IDS = ["0{i}", "+{i}", " {i}", "{i} "]
_STYLES = ["clean"] * 4 + ["ranges", "odd_ids", "comment"]
_DEFECTS = ["bad_row", "duplicate_id", "two_roots", "cycle", "blank_form"]


@st.composite
def _tree(draw, n: int) -> list[int]:
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for k, tok in enumerate(order[1:], 1):  # each token under one placed before it
        heads[tok - 1] = order[draw(st.integers(0, k - 1))]
    return heads


@st.composite
def _block(draw) -> dict:
    """One sentence: its name (None: ordinal), its words as cell lists, and its style."""
    n = draw(st.integers(1, 9))
    heads = draw(_tree(n))
    words = [
        [str(i), draw(_FORMS), "_", "X", "_", "_", str(heads[i - 1]),
         "root" if heads[i - 1] == 0 else "dep", "_", draw(_MISCS)]
        for i in range(1, n + 1)
    ]
    return {"name": draw(st.sampled_from([None, "named"])), "words": words,
            "style": draw(st.sampled_from(_STYLES)), "seed": draw(st.integers(0, 10**6))}


def _lines(block: dict, k: int) -> list[str]:
    """The block's comment and row lines, its style applied (deterministic in its seed)."""
    seed, words, style = block["seed"], block["words"], block["style"]
    lines = ["# text = t"] if seed % 3 == 0 else []
    if block["name"] is not None:
        lines.append(f"# sent_id = {block['name'] if block['name'] != 'named' else f'n{k}'}")
    rows = []
    for i, cells in enumerate(words, 1):
        cells = list(cells)
        if style == "odd_ids" and (seed >> i) % 2 and cells[0] == str(i):
            cells[0] = _ODD_IDS[(seed + i) % len(_ODD_IDS)].format(i=i)
        if style == "ranges" and (seed >> i) % 3 == 0 and i < len(words):
            rows.append("\t".join([f"{i}-{i + 1}", "du", *["_"] * 8]))
        rows.append("\t".join(cells))
        if style == "ranges" and (seed >> i) % 4 == 1:
            rows.append("\t".join([f"{i}.1", "e", *["_"] * 8]))
    if style == "comment":
        rows.insert(1 + seed % len(rows), "# between the rows")
    return lines + rows


def _spoil(blocks: list[dict], defect: str, k: int, seed: int) -> bool:
    """Put ``defect`` into block ``k`` (or name an earlier block alike); False if it cannot."""
    block = blocks[k]
    words = block["words"]
    n = len(words)
    non_roots = [i for i, cells in enumerate(words) if cells[6] != "0"]
    if defect == "bad_row":
        cells = words[seed % n]
        spoil = seed % 4
        if spoil == 0:
            del cells[4]  # nine columns
        elif spoil == 1:
            cells.append("_")  # eleven
        elif spoil == 2:
            cells[0] = "x"
        else:
            cells[6] = "h"
    elif defect == "blank_form":
        words[seed % n][1] = " " if seed % 2 else ""
    elif defect == "two_roots":
        if not non_roots:
            return False
        words[non_roots[seed % len(non_roots)]][6] = "0"
    elif defect == "cycle":
        if len(non_roots) < 2:
            return False
        u, v = non_roots[seed % len(non_roots)], non_roots[(seed + 1) % len(non_roots)]
        words[u][6], words[v][6] = str(v + 1), str(u + 1)
    elif defect == "duplicate_id":
        if k == 0:
            return False
        blocks[seed % k]["name"] = block["name"] = "twice"
    return True


@st.composite
def _document(draw, defect: bool):
    blocks = draw(st.lists(_block(), min_size=1, max_size=14))
    if defect:
        kind = draw(st.sampled_from(_DEFECTS))
        k = draw(st.integers(0, len(blocks) - 1))
        if not _spoil(blocks, kind, k, draw(st.integers(0, 10**6))):
            kind = "blank_form"
            _spoil(blocks, kind, k, 0)
    lines: list[str] = []
    for k, block in enumerate(blocks):
        if k:
            lines.append(draw(st.sampled_from(["", "", "", " ", "\t"])))
        lines += _lines(block, k)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


_CAPS = st.sampled_from([corpus._BATCH_ROWS, 1, 4, 9, 23])


@settings(max_examples=400, deadline=None)
@given(data=_document(defect=False), cap=_CAPS)
def test_generated_documents_parse_as_the_reference_does(data, cap):
    with mock.patch.object(corpus, "_BATCH_ROWS", cap):
        outcome = _outcome(parse_conllu, data)
    assert outcome == _outcome(corpus_reference.parse_conllu, data)
    assert isinstance(outcome, list)


@settings(max_examples=500, deadline=None)
@given(data=_document(defect=True), cap=_CAPS)
def test_one_defect_raises_the_reference_error_at_its_line(data, cap):
    with mock.patch.object(corpus, "_BATCH_ROWS", cap):
        outcome = _outcome(parse_conllu, data)
    reference = _outcome(corpus_reference.parse_conllu, data)
    assert isinstance(reference, tuple), "the defect should make the reference raise"
    assert outcome == reference


def _fixture_blocks(copies: int, between: bool = False) -> tuple[str, list[int]]:
    """``copies`` renamed copies of the bundled fixture's blocks, and each block's row count."""
    text = resources.files("rhesis").joinpath("data/fixture.conllu").read_text(encoding="utf-8")
    blocks = [b for b in text.strip("\n").split("\n\n") if b]
    out, counts = [], []
    for c in range(copies):
        for b, block in enumerate(blocks):
            lines = [f"# sent_id = c{c}-{b}"]
            rows = [line for line in block.split("\n") if not line.startswith("#")]
            if between:
                rows.insert(1, "# between the rows")
            out.append("\n".join(lines + rows))
            counts.append(sum(not row.startswith("#") for row in rows))
    return "\n\n".join(out) + "\n", counts


def _batches(counts: list[int], cap: int, skipped: int = 0) -> list[int]:
    """The word rows of each batch, cut greedily at ``cap`` rows, each block
    holding ``skipped`` rows (ranges, empty nodes) besides its words."""
    batches, rows = [0], 0
    for count in counts:
        if rows and rows + count + skipped > cap:
            batches.append(0)
            rows = 0
        rows += count + skipped
        batches[-1] += count
    return batches


@pytest.mark.parametrize("between", [False, True], ids=["clean", "comment-between"])
def test_a_clean_document_is_read_with_one_reader_call_per_batch(between, monkeypatch):
    data, counts = _fixture_blocks(200, between)
    expected = _batches(counts, corpus._BATCH_ROWS)
    assert len(expected) >= 3 and max(expected) <= corpus._BATCH_ROWS
    if not between:  # a comment between rows sends its batch to the line reader
        calls = []
        reader = corpus._columns

        def counted(cells):
            calls.append((len(cells) - 1) // 10)  # rows read by this call
            return reader(cells)

        def forbidden(*args, **kwargs):
            raise AssertionError("a clean batch was read block by block")

        monkeypatch.setattr(corpus, "_columns", counted)
        for name in ("_read_lines", "_check_tokens"):
            monkeypatch.setattr(corpus, name, forbidden)
        sentences = parse_conllu(data)
        assert calls == expected
        assert len(sentences) == len(counts)
        monkeypatch.undo()
    assert _outcome(parse_conllu, data) == _outcome(corpus_reference.parse_conllu, data)


def test_ranges_and_empty_nodes_in_every_block_keep_one_reader_call_per_batch(monkeypatch):
    data, counts = _fixture_blocks(200)
    blocks = []
    for block in data.split("\n\n"):
        lines = block.split("\n")  # the sent_id, then the rows
        lines.insert(1, "\t".join(["1-2", "du", *["_"] * 8]))
        lines.insert(3, "\t".join(["1.1", "e", *["_"] * 8]))
        blocks.append("\n".join(lines))
    data = "\n\n".join(blocks)
    expected = _batches(counts, corpus._BATCH_ROWS, skipped=2)
    assert len(expected) >= 3
    calls = []
    reader = corpus._columns

    def counted(cells):
        calls.append((len(cells) - 1) // 10)  # word rows read by this call
        return reader(cells)

    def forbidden(*args, **kwargs):
        raise AssertionError("a batch with ranges was read block by block")

    monkeypatch.setattr(corpus, "_columns", counted)
    for name in ("_read_lines", "_check_tokens"):
        monkeypatch.setattr(corpus, name, forbidden)
    sentences = parse_conllu(data)
    assert calls == expected
    assert len(sentences) == len(counts)
    monkeypatch.undo()
    assert _outcome(parse_conllu, data) == _outcome(corpus_reference.parse_conllu, data)


def _line_reads(monkeypatch, row: str, at: int) -> tuple[list[str], list[str]]:
    """The chunks the line reader gets, ``row`` put at line ``at`` of every third block.

    Also returns the document's chunks; the document must parse as the
    reference parses it.
    """
    data, _ = _fixture_blocks(20)
    blocks = data.split("\n\n")
    for k in range(0, len(blocks), 3):
        lines = blocks[k].split("\n")
        lines.insert(at, row)
        blocks[k] = "\n".join(lines)
    data = "\n\n".join(blocks)
    chunks = []
    reader = corpus._read_lines

    def counted(chunk, first_line):
        chunks.append(chunk)
        return reader(chunk, first_line)

    monkeypatch.setattr(corpus, "_read_lines", counted)
    assert _outcome(parse_conllu, data) == _outcome(corpus_reference.parse_conllu, data)
    return chunks, blocks


def test_range_rows_send_no_block_to_the_line_reader(monkeypatch):
    # a range row in every third block, under its sent_id: it is dropped
    # from the batch's cells, and every block takes its columns from them
    chunks, _ = _line_reads(monkeypatch, "\t".join(["1-2", "du", *["_"] * 8]), 1)
    assert chunks == []


def test_a_comment_between_rows_sends_its_whole_batch_to_the_line_reader(monkeypatch):
    # a one-cell row puts the batch's cells out of step with its rows; here
    # every batch holds one, so every block is read line by line, in order
    chunks, blocks = _line_reads(monkeypatch, "# between the rows", 2)
    assert chunks == blocks


def test_an_unnamed_block_takes_its_first_words_line_as_its_id_line():
    # the second block's ordinal id, s2, repeats the first block's; its id
    # line is its first word's, past the range row and the empty node
    data = "\n".join([
        "# sent_id = s2", _row(1, "a", 0), "",
        "\t".join(["1-2", "du", *["_"] * 8]), "\t".join(["0.1", "e", *["_"] * 8]),
        _row(1, "de", 2), _row(2, "le", 0), "",
    ])
    with pytest.raises(ParseError) as raised:
        parse_conllu(data)
    assert str(raised.value) == "line 6: duplicate sentence id 's2'"
    assert _outcome(parse_conllu, data) == _outcome(corpus_reference.parse_conllu, data)


def test_a_defect_past_the_first_batch_is_named_at_its_line():
    data, _ = _fixture_blocks(200)
    lines = data.split("\n")
    # the last word row of the document gets a head that is not an integer
    last = max(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    cells = lines[last].split("\t")
    cells[6] = "h"
    lines[last] = "\t".join(cells)
    bad = "\n".join(lines)
    with pytest.raises(ParseError) as raised:
        parse_conllu(bad)
    assert raised.value.line == last + 1
    assert str(raised.value) == f"line {last + 1}: unreadable head 'h'"
    assert _outcome(parse_conllu, bad) == _outcome(corpus_reference.parse_conllu, bad)


NAMES = [
    # leading comments
    (["# sent_id = a1", "# sent_id_orig = zz", _row(1, "a", 0)], "a1"),
    (["# sent_id_orig = zz", _row(1, "a", 0)], "s1"),
    (["# sent_idx = q", "#sent_id=b2", "# sent_id2 = r", _row(1, "a", 0)], "b2"),
    (["#  sent_id  =  c3 ", _row(1, "a", 0)], "c3"),
    (["# sent_id", "# sent_id foo = bar", _row(1, "a", 0)], "s1"),
    # comments between the rows
    (["# sent_id = a1", _row(1, "a", 0), "# sent_id_orig = zz", _row(2, "b", 1)], "a1"),
    ([_row(1, "a", 0), "# sent_id_orig = zz", _row(2, "b", 1)], "s1"),
    ([_row(1, "a", 0), "# sent_id = d4", _row(2, "b", 1)], "d4"),
]


@pytest.mark.parametrize("lines, name", NAMES)
@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_only_the_exact_sent_id_key_names_a_sentence(lines, name, eol):
    data = eol.join(lines) + eol
    [sentence] = parse_conllu(data)
    assert sentence.sent_id == name
    assert _outcome(parse_conllu, data) == _outcome(corpus_reference.parse_conllu, data)


def test_a_prefixed_key_does_not_rename_the_next_sentence_either():
    data = "\n".join(["# sent_id = a1", _row(1, "a", 0), "",
                      "# sent_id_orig = a1", _row(1, "b", 0)])
    assert [s.sent_id for s in parse_conllu(data)] == ["a1", "s2"]
