"""Parsed-sentence data model: CoNLL-U ingestion, gold files, tree queries.

The segmenters operate on sentences that were dependency-parsed elsewhere and
serialized as CoNLL-U.  Only five of the ten columns matter here (ID, FORM,
UPOS, HEAD, DEPREL) plus the MISC column's ``SpaceAfter=No`` flag.  A
``Sentence`` keeps them as parallel tuples (``forms``, ``upos``, ``heads``,
``deprels``, ``miscs``), and lays out its surface text, each token's offsets
in it and its tree traversal once, when it is built; ``Token`` objects are
made only when a sentence's ``tokens`` are read.

Every reader decodes with ``_decoded``: CRLF reads as LF.  ``parse_conllu``
reads the word rows of consecutive blank-line blocks a batch at a time, up to
``_BATCH_ROWS`` rows: one ``replace`` and one ``split`` cut the whole batch
into cells, with no per-line work.  A comment is a block's id only when its
key before ``=`` is exactly ``sent_id``.  Once every row of a batch has 10
cells, its multiword ranges and empty nodes are dropped from the cells; when
the rest pass the column tests (each block's word ids ``1..k`` and heads
``0..512`` as written, non-blank forms), each block's five columns and its
forms' spacing are slices of the batch's.  Every block of any other batch
goes to the line reader, ``_read_lines``, in order.  It lifts out comments
among the rows, ends a block at a blank-looking line, skips multiword ranges
and empty nodes, reads ids and heads with ``int`` and raises ``ParseError``
at the first bad row, so every error names its line.

``Sentence._build`` tests heads on whole columns, and a sentence that fails
a test goes to the per-token checks, which name the first bad token.  The
root count and the cycle check raise directly.

A ``Segmentation`` holds its sentence and each unit's last token, and no
other form; ``segmentation_from_spans`` builds one by hand.  Its ``Rhesis``
units, like a sentence's ``tokens``, are built on first read.  Gold
segmentations travel in a plain text format: one rhesis per line, a blank
line between sentences, ``#doc `` lines carrying document labels, and other
``#`` lines ignored as comments.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise, starmap
from operator import add, eq, lt

from .errors import AlignmentError, FormatError, ParseError, RhesisError, StructuralError

__all__ = [
    "Token",
    "Sentence",
    "Rhesis",
    "Segmentation",
    "AlignedEntry",
    "AlignedCorpus",
    "parse_conllu",
    "parse_gold",
    "align_gold",
    "token_depth",
    "segmentation_from_spans",
    "segmentation_from_cuts",
]


@dataclass(frozen=True, slots=True)
class Token:
    """One syntactic word.

    ``index`` is the 1-based position within the sentence, ``head`` the index
    of the governing token (0 for the root).  ``misc`` keeps the raw MISC
    column (``""`` when the column was ``_``).
    """

    index: int
    form: str
    upos: str
    head: int
    deprel: str
    misc: str = ""

    @property
    def space_after(self) -> bool:
        """Whether the surface form is followed by a space."""
        return _space_after(self.misc)


def _space_after(misc: str) -> bool:
    return "SpaceAfter=No" not in misc.split("|")


@dataclass(frozen=True, slots=True)
class Sentence:
    """An ordered token sequence forming one dependency tree, held as columns.

    Token ``i`` (1-based) has the form ``forms[i - 1]``, and likewise for
    ``upos``, ``heads``, ``deprels`` and ``miscs`` (the raw MISC column,
    ``""`` for ``_``).  ``text[starts[i - 1]:ends[i - 1]]`` is that form, and
    one space follows every token but the last unless its MISC says
    ``SpaceAfter=No``.  ``_tree`` keeps the ``_top_down`` traversal of the
    cycle check for the per-sentence index, the cascade's clause level and
    the tree queries; it is read, never changed.  The offsets and the
    traversal follow from the columns: ``==``, ``hash`` and ``repr`` skip
    them.  ``tokens`` gives the same sentence as ``Token`` objects, built on
    first read.
    """

    sent_id: str
    forms: tuple[str, ...]
    upos: tuple[str, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    miscs: tuple[str, ...]
    text: str
    starts: tuple[int, ...] = field(repr=False, compare=False)
    ends: tuple[int, ...] = field(repr=False, compare=False)
    _tree: tuple[list[list[int]], list[int]] = field(repr=False, compare=False)
    _tokens: tuple[Token, ...] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_tokens(cls, sent_id: str, tokens: tuple[Token, ...] | list) -> "Sentence":
        """Build a sentence, validating the tree and laying out its text.

        Raises StructuralError when the token indices do not run 1..n in
        order, when a form is empty, only whitespace or holds a line break
        (its rhesis would render as a sentence break), when heads are out of
        range, the root count is not exactly one, or the head relation
        contains a cycle.  ``tokens`` is kept as the sentence's ``tokens``.
        """
        toks = tuple(tokens)
        for position, tok in enumerate(toks, 1):
            if tok.index != position:
                raise StructuralError(
                    f"sentence {sent_id!r}: token {tok.index} ({tok.form!r}) out of "
                    f"sequence (expected {position})"
                )
        sentence = cls._build(
            sent_id,
            tuple(tok.form for tok in toks),
            tuple(tok.upos for tok in toks),
            tuple(tok.head for tok in toks),
            tuple(tok.deprel for tok in toks),
            tuple(tok.misc for tok in toks),
        )
        object.__setattr__(sentence, "_tokens", toks)
        return sentence

    @classmethod
    def _build(cls, sent_id: str, forms, upos, heads, deprels, miscs, parts=None) -> "Sentence":
        """The sentence the column tuples describe: the one validation, traversal and layout.

        ``parts`` is ``_parts(forms, miscs)``, given only by the CoNLL-U
        reader's batch reads, which have proved every form non-blank and
        free of line breaks; without it (``from_tokens``, the line reader)
        the forms are checked here.  The checks run on whole columns; only
        when one fails does ``_check_tokens`` walk the tokens to name the
        first bad one.
        """
        n = len(forms)
        if n == 0:
            raise StructuralError(f"sentence {sent_id!r}: no tokens")
        if parts is None:
            if not all(map(str.strip, forms)) or "\n" in "".join(forms):
                _check_tokens(sent_id, forms, heads)
            parts = _parts(forms, miscs)
        if min(heads) < 0 or max(heads) > n or any(map(eq, heads, range(1, n + 1))):
            _check_tokens(sent_id, forms, heads)
        roots = heads.count(0)
        if roots != 1:
            raise StructuralError(f"sentence {sent_id!r}: {roots} roots (need exactly 1)")
        # Cycle check: every token has one head, so the walk down from the
        # root reaches each token at most once, and it reaches exactly the
        # tokens whose head chain ends at the root.  Any other token's chain
        # loops; the first of them in index order is the one named.
        tree = _top_down(heads)
        order = tree[1]
        if len(order) < n:
            reached = set(order)
            looping = next(i for i in range(1, n + 1) if i not in reached)
            raise StructuralError(f"sentence {sent_id!r}: cycle through token {looping}")
        starts = tuple(accumulate(map(len, parts[:-1]), initial=0))
        ends = tuple(map(add, starts, map(len, forms)))
        text = "".join(parts)[: ends[-1]]  # no space after the last token
        return cls(sent_id, forms, upos, heads, deprels, miscs, text, starts, ends, tree)

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The sentence as ``Token`` objects, built from the columns on first read."""
        toks = self._tokens
        if toks is None:
            toks = tuple(
                Token(i, *row)
                for i, row in enumerate(
                    zip(self.forms, self.upos, self.heads, self.deprels, self.miscs), 1
                )
            )
            object.__setattr__(self, "_tokens", toks)
        return toks

    def __len__(self) -> int:
        return len(self.forms)

    def span_text(self, start: int, end: int) -> str:
        """Surface text of tokens ``start..end`` (1-based, inclusive)."""
        if not 1 <= start <= end <= len(self.forms):
            raise ValueError(f"bad span ({start}, {end}) for {len(self.forms)} tokens")
        return self.text[self.starts[start - 1] : self.ends[end - 1]]


def _check_tokens(sent_id: str, forms, heads) -> None:
    """Raise StructuralError for the first token with a blank form, a line break or a bad head."""
    n = len(forms)
    for index, (form, head) in enumerate(zip(forms, heads), 1):
        if not form.strip():
            raise StructuralError(
                f"sentence {sent_id!r}: token {index} has an empty or "
                f"whitespace-only form ({form!r})"
            )
        if "\n" in form:
            raise StructuralError(
                f"sentence {sent_id!r}: token {index} has a line break in its form ({form!r})"
            )
        if not 0 <= head <= n or head == index:
            raise StructuralError(
                f"sentence {sent_id!r}: head {head} of token {index} ({form!r}) out of range"
            )


def _parts(forms, miscs) -> list[str]:
    """The pieces of the text: each form with the space after it, if its MISC allows one."""
    gaps = {misc: " " if _space_after(misc) else "" for misc in set(miscs)}
    return list(map(add, forms, map(gaps.__getitem__, miscs)))


def _top_down(heads: tuple[int, ...]) -> tuple[list[list[int]], list[int]]:
    """Each token's dependents in index order (entry 0: the root), and a top-down order.

    ``heads[i - 1]`` governs token ``i``.  The order lists the tokens the
    root reaches: every token, in a tree.
    """
    children: list[list[int]] = [[] for _ in range(len(heads) + 1)]
    for index, head in enumerate(heads, 1):
        children[head].append(index)
    order = list(children[0])
    for node in order:
        order.extend(children[node])
    return children, order


def token_depth(sentence: Sentence, index: int) -> int:
    """Number of head steps from token ``index`` to the root (root: 0)."""
    heads = sentence.heads
    if not 1 <= index <= len(heads):
        raise ValueError(f"token index {index} out of range")
    depth = 0
    cur = heads[index - 1]
    while cur != 0:
        depth += 1
        cur = heads[cur - 1]
    return depth


@dataclass(frozen=True, slots=True)
class Rhesis:
    """One unit of meaning: a contiguous token span and its surface text."""

    start: int
    end: int
    text: str


@dataclass(frozen=True, slots=True, eq=False)
class Segmentation:
    """A partition of one sentence into rhesis, in order: the sentence and
    each unit's last token, nothing else.

    The constructor checks nothing.  Its callers are the producers, which
    check that their units tile the sentence: ``segmentation_from_spans``
    (the way to build one by hand, and ``regroup``'s),
    ``segmentation_from_cuts`` (every segmenter's) and ``align_gold``.
    ``sentence_id`` reads the sentence, and ``spans()``, ``cuts()`` and
    ``token_count`` read the ends.  ``rhesis`` is built on first read, each
    text the sentence's text over the unit, and kept, as ``Sentence.tokens``
    is.  The sentence also gives ``render_html`` the units' spacing.  ``==``,
    ``hash`` and ``repr`` read the sentence id and each unit's start, end and
    text, so the segmentations of two equal sentences compare equal.
    """

    _sentence: Sentence
    _ends: tuple[int, ...]
    _rhesis: tuple[Rhesis, ...] | None = field(default=None, init=False)

    def __repr__(self) -> str:
        return f"Segmentation(sentence_id={self.sentence_id!r}, rhesis={self.rhesis!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sentence_id == other.sentence_id and self._units() == other._units()

    def __hash__(self) -> int:
        return hash((self.sentence_id, *self._units()))

    @property
    def sentence_id(self) -> str:
        return self._sentence.sent_id

    @property
    def rhesis(self) -> tuple[Rhesis, ...]:
        if self._rhesis is None:
            object.__setattr__(self, "_rhesis", tuple(starmap(Rhesis, self._units())))
        return self._rhesis

    def _units(self) -> list[tuple[int, int, str]]:
        """``(start, end, text)`` of each unit, without building a ``Rhesis``."""
        s = self._sentence
        text, starts, ends = s.text, s.starts, s.ends
        units, a = [], 1
        for b in self._ends:
            units.append((a, b, text[starts[a - 1] : ends[b - 1]]))
            a = b + 1
        return units

    def spans(self) -> tuple[tuple[int, int], ...]:
        ends = self._ends
        return tuple(zip([1, *[end + 1 for end in ends[:-1]]], ends))

    def cuts(self) -> tuple[int, ...]:
        """Internal boundary positions (a cut at ``i`` splits token i from i+1)."""
        return self._ends[:-1]

    @property
    def token_count(self) -> int:
        return self._ends[-1]


def segmentation_from_spans(sentence: Sentence, spans: Iterable[tuple[int, int]]) -> Segmentation:
    """Build a Segmentation from 1-based inclusive spans over ``sentence``.

    The spans must tile the sentence: start at 1, end at the token count, and
    each span must begin right after its predecessor ends.  Only the ends
    are kept; the units are built when ``rhesis`` is first read.
    """
    n = len(sentence)
    expected = 1
    ends = []
    for start, end in spans:
        if not expected == start <= end <= n:
            raise ValueError(f"spans do not tile the sentence at ({start}, {end})")
        ends.append(end)
        expected = end + 1
    if expected != n + 1:
        raise ValueError("spans do not cover the sentence")
    return Segmentation(sentence, tuple(ends))


def segmentation_from_cuts(sentence: Sentence, cuts: tuple[int, ...] | list) -> Segmentation:
    """Build a Segmentation from internal cut positions (strictly increasing).

    Only bad cuts are read as spans, so they raise ``segmentation_from_spans``'s error.
    """
    bounds = (0, *cuts, len(sentence))
    if not all(map(lt, bounds, bounds[1:])):
        segmentation_from_spans(sentence, zip([b + 1 for b in bounds[:-1]], bounds[1:]))
    return Segmentation(sentence, bounds[1:])


def _decoded(data: str | bytes, error: type[RhesisError]) -> str:
    """``data`` as text less one leading byte-order mark and every run of CRs that
    ends a line or the text; bytes must be UTF-8, else ``error`` is raised."""
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"not valid UTF-8: {exc}") from None
    if "\r" in data:  # far cheaper than a replace that finds nothing
        data += "\n"  # the LF a final run of CRs lacks
        while "\r\n" in data:  # each pass takes one CR from every run
            data = data.replace("\r\n", "\n")
        data = data[:-1]
    return data[1:] if data.startswith("\ufeff") else data


def parse_conllu(data: str | bytes) -> list[Sentence]:
    """Parse a CoNLL-U stream into validated sentences.

    Multiword-token ranges (``3-4``) and empty nodes (``8.1``) are skipped;
    only syntactic words are kept, and each needs a form that is not empty
    or only whitespace.  Line ends are ``_decoded``'s.  Sentences without a
    ``# sent_id`` comment get ordinal ids ``s1``, ``s2``, ...; a comment is
    a sentence id only when its key before ``=`` is exactly ``sent_id``.  A
    sentence id that repeats an earlier one, given or ordinal, is an error.

    The word rows of consecutive blocks are read column-wise a batch at a
    time; a batch the column tests refuse is read line by line, and the
    first bad row raises at its line (see the module docstring).
    """
    text = _decoded(data, ParseError)
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for sent_id, id_line, *columns in _blocks(text):
        name = sent_id if sent_id is not None else f"s{len(sentences) + 1}"
        if name in seen:
            raise ParseError(f"duplicate sentence id {name!r}", line=id_line)
        seen.add(name)
        sentences.append(Sentence._build(name, *columns))
    return sentences


# Word rows read with one cut, at most (a longer block is a batch alone):
# bounds the cells a batch holds at once.
_BATCH_ROWS = 4096


def _blocks(text: str):
    """Each block of ``text`` that holds words: ``(sent_id, id line, *columns, parts)``.

    A chunk between two ``"\\n\\n"`` is leading comment lines, then rows;
    consecutive chunks with rows go to ``_batch`` up to ``_BATCH_ROWS`` rows
    at a time.  The id is the last leading ``# sent_id`` comment's (None
    without one); without one, the id line is the first word's.
    """
    batch: list[tuple] = []
    rows = 0  # in the batch
    start = 1  # the line the next chunk starts on
    for chunk in text.split("\n\n"):
        first_line, start = start, start + chunk.count("\n") + 2
        body = chunk.lstrip("\n")
        lineno = first_line + len(chunk) - len(body)
        body = body.rstrip("\n")
        sent_id, id_line = None, 0
        head = 0  # where the rows start
        while body.startswith("#", head):
            end = body.find("\n", head)
            if end < 0:
                end = len(body)
            comment_id = _comment_id(body[head:end])
            if comment_id is not None:
                sent_id, id_line = comment_id, lineno
            head = end + 1
            lineno += 1
        if head >= len(body):
            continue
        count = body.count("\n", head) + 1
        rows += count
        if rows > _BATCH_ROWS and batch:
            yield from _batch(batch)
            batch, rows = [], count
        batch.append((sent_id, id_line or lineno, count, body[head:], chunk, first_line))
    if batch:
        yield from _batch(batch)


def _batch(blocks: list[tuple]):
    """``_blocks``' output for ``blocks``, whose rows are cut into cells at once.

    A block is ``(sent_id, id line, row count, rows, chunk, the chunk's
    first line)``.  The rows ``_read_lines`` skips are dropped from the
    cells, and an unnamed block's id line becomes its first word's.  A batch
    ``_columns`` then refuses is read a block at a time, in order, so the
    first error in the document is the one raised.
    """
    counts = [block[2] for block in blocks]
    id_lines = [block[1] for block in blocks]
    cells = _cells("\n".join([block[3] for block in blocks]))
    ids = "".join(cells[1::10])
    columns = None
    # A cell starts with a newline exactly when it starts a row, so a newline
    # in every tenth cell proves 10 columns in every row.
    if len(cells) - 1 == 10 * ids.count("\n") == 10 * sum(counts):
        bounds = list(accumulate(counts))  # each block's last row, from 1
        kept, start, row, at = [], 0, 0, 0
        for match in _SKIPPED.finditer(ids) if "-" in ids or "." in ids else ():
            row += ids.count("\n", at, match.end())
            at = match.end()
            k = bisect_left(bounds, row)
            if row == bounds[k] - counts[k] + 1 and blocks[k][0] is None:
                id_lines[k] += 1  # no word yet: the id line moves to the next row
            counts[k] -= 1
            kept += cells[start : 10 * row - 9]
            start = 10 * row + 1
        cells = kept + cells[start:] if start else cells
        plain = list(chain.from_iterable(_ROW_IDS[:count] for count in counts))
        columns = _columns(cells) if cells[1::10] == plain else None
    if columns is None:
        for block in blocks:
            yield from _read_lines(block[4], block[5])
        return
    forms, upos, heads, deprels, miscs = columns
    parts = _parts(forms, miscs)  # laid out once for the batch
    for block, id_line, (a, b) in zip(blocks, id_lines, pairwise(accumulate(counts, initial=0))):
        if a < b:  # a block of ranges and empty nodes alone holds no sentence
            yield (block[0], id_line, forms[a:b], upos[a:b], heads[a:b], deprels[a:b],
                   miscs[a:b], parts[a:b])


_NO_MISC = {"_": ""}  # _NO_MISC.get(misc, misc): the MISC column as a Sentence keeps it
# Rows cut by _cells: the ID cells of rows 1, 2, 3, ... read "\n1", "\n2", "\n3", ...
_ROW_IDS = [f"\n{i}" for i in range(1, 513)]
_HEADS = {str(i): i for i in range(513)}  # the HEAD cells of heads 0..512, as written
# In a batch's ID cells joined, a row _read_lines skips: "-" or "." in a non-comment ID.
# It tries a match at every row, so a batch with neither character skips it.
_SKIPPED = re.compile(r"\n(?!#)[^\n.-]*[.-]")


def _cells(rows: str) -> list[str]:
    """``rows`` cut at tabs, each newline starting a row's ID cell: cells 1, 11, 21, ..."""
    return ("\n" + rows).replace("\n", "\t\n").split("\t")


def _columns(cells: list[str]):
    """The five columns of rows cut by ``_cells``; None for a blank form or a head off the table."""
    forms = cells[2::10]
    if not all(map(str.strip, forms)):
        return None
    try:
        heads = tuple(map(_HEADS.__getitem__, cells[7::10]))
    except KeyError:  # past 512, written otherwise for int ("+2", "02"), or no integer
        return None
    miscs = list(map(str.strip, cells[10::10]))
    return (
        tuple(forms),
        tuple(cells[4::10]),
        heads,
        tuple(cells[8::10]),
        tuple(map(_NO_MISC.get, miscs, miscs)),
    )


def _read_lines(chunk: str, first_line: int):
    """``_blocks``' output for ``chunk``, which starts on line ``first_line``, read line by line.

    Comments are lifted out wherever they stand, and a blank-looking line
    ends a block.  Multiword ranges and empty nodes are skipped, ids and
    heads are read with ``int``, and the first bad row raises ParseError at
    its line.  The id is the last ``# sent_id`` comment's (None without
    one); without one, the id line is the first word's.
    """
    sent_id, id_line, words = None, 0, []
    for lineno, line in enumerate([*chunk.split("\n"), ""], first_line):  # "": the block ends
        if not line or line.isspace():
            if words:
                yield sent_id, id_line, *zip(*words), None
            sent_id, words = None, []
            continue
        if line.startswith("#"):
            comment_id = _comment_id(line)
            if comment_id is not None:
                sent_id, id_line = comment_id, lineno
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}", line=lineno)
        ident, form, _, upos, _, _, head, deprel, _, misc = cols
        if "-" in ident or "." in ident:
            continue  # multiword range / empty node: not a syntactic word
        try:
            index = int(ident)
        except ValueError:
            raise ParseError(f"unreadable token id {ident!r}", line=lineno) from None
        if index != len(words) + 1:
            raise ParseError(
                f"token id {index} out of sequence (expected {len(words) + 1})", line=lineno
            )
        if not form.strip():  # rendered, it would read as a sentence break
            raise ParseError(f"token {index} has an empty or whitespace-only form", line=lineno)
        try:
            head = int(head)
        except ValueError:
            raise ParseError(f"unreadable head {head!r}", line=lineno) from None
        if not words and sent_id is None:
            id_line = lineno
        misc = misc.strip()
        words.append((form, upos, head, deprel, _NO_MISC.get(misc, misc)))


def _comment_id(line: str) -> str | None:
    """The sentence id a ``#`` comment line sets, or None."""
    key, equals, value = line[1:].partition("=")
    return value.strip() if equals and key.strip() == "sent_id" else None


def parse_gold(data: str | bytes) -> list[tuple[str, list[str]]]:
    """Parse a gold rhesis stream into ``(doc_label, rhesis_lines)`` groups.

    Each group covers one sentence.  ``#doc <label>`` lines set the label for
    the groups that follow; other ``#`` lines are comments.  A ``#doc`` line
    inside a sentence block is malformed.  A rhesis line that starts with
    ``\\`` loses exactly that one character: it escapes a rhesis text that
    begins with ``#`` or ``\\`` (see ``render_text``).
    """
    data = _decoded(data, FormatError)
    groups: list[tuple[str, list[str]]] = []
    label = ""
    current: list[str] | None = None
    for lineno, line in enumerate(data.split("\n"), start=1):
        if not line.strip():
            if current:
                groups.append((label, current))
            current = None
            continue
        if line.startswith("#doc"):
            rest = line[4:]
            if not rest.startswith(" ") or not rest.strip():
                raise FormatError("malformed #doc line (need '#doc <label>')", line=lineno)
            if current:
                raise FormatError("#doc label inside a sentence block", line=lineno)
            label = rest.strip()
            continue
        if line.startswith("#"):
            continue
        if current is None:
            current = []
        current.append(line[1:] if line.startswith("\\") else line)
    if current:
        groups.append((label, current))
    return groups


@dataclass(frozen=True, slots=True)
class AlignedEntry:
    """One sentence paired with its gold segmentation and document label."""

    sentence: Sentence
    gold: Segmentation
    doc_label: str = ""


@dataclass(frozen=True, slots=True)
class AlignedCorpus:
    """Sentences aligned with gold segmentations, in corpus order."""

    entries: tuple[AlignedEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def align_gold(
    sentences: list[Sentence], gold: list[tuple[str, list[str]]]
) -> AlignedCorpus:
    """Match gold rhesis lines onto parsed sentences, producing token spans.

    The two inputs must cover the same sentences in the same order.  Each
    line is read once, from the token after the previous line's, exactly or
    whitespace-normalized (``_align_sentence``); every rhesis must start and
    end on a token boundary, and together they must consume the whole
    sentence.
    """
    if len(sentences) != len(gold):
        raise AlignmentError(
            f"sentence count mismatch: {len(sentences)} parsed vs {len(gold)} segmented"
        )
    entries = []
    for sentence, (label, lines) in zip(sentences, gold):
        entries.append(AlignedEntry(sentence, _align_sentence(sentence, lines), label))
    return AlignedCorpus(entries=tuple(entries))


def _align_sentence(sentence: Sentence, lines: list[str]) -> Segmentation:
    """The segmentation ``lines`` give, each line read from the token after the last line's.

    A line that is the exact text of the tokens from there on is matched by
    offset.  Any other line is matched form by form with whitespace runs
    read as one space (the forms are normalized once, at the first such
    line).  Either way only the rhesis's last token is kept: its text is
    its tokens', read from the sentence.
    The normalized reading of an exact line ends on the same token, so
    neither the spans nor the errors depend on which reading a line takes.
    Coverage of the whole sentence is checked once, after the last line.
    """
    sent_id, text, starts, ends = sentence.sent_id, sentence.text, sentence.starts, sentence.ends
    n = len(ends)
    forms = None  # normalized, built at the first inexact line
    bounds = []  # each rhesis's last token
    tok = 0  # tokens fully consumed so far
    for line in lines:
        if tok < n:
            e = starts[tok] + len(line)
            j = bisect_left(ends, e, tok)
            if j < n and ends[j] == e and text.startswith(line, starts[tok]):
                tok = j + 1
                bounds.append(tok)
                continue
        if forms is None:
            forms = [" ".join(form.split()) for form in sentence.forms]
        target = " ".join(line.split())
        if not target:
            raise AlignmentError(f"sentence {sent_id!r}: empty gold rhesis line")
        pos = 0
        while True:
            if tok == n:
                raise AlignmentError(
                    f"sentence {sent_id!r}: gold text {target!r} continues past the last token"
                )
            form = forms[tok]
            if target[pos : pos + len(form)] != form:
                if form.startswith(target[pos:]):
                    raise AlignmentError(
                        f"sentence {sent_id!r}: rhesis boundary falls "
                        f"inside token {tok + 1} ({sentence.forms[tok]!r})"
                    )
                raise AlignmentError(
                    f"sentence {sent_id!r}: gold text {target!r} does not "
                    f"match token {tok + 1} ({sentence.forms[tok]!r}) at offset {pos}"
                )
            pos += len(form)
            tok += 1
            if pos == len(target):
                break
            # normalized, whitespace at the joint (the space after a token, or
            # either form's edge) reads as one space
            if tok < n and (text[starts[tok] - 1].isspace() or text[starts[tok]].isspace()):
                if target[pos] != " ":
                    raise AlignmentError(
                        f"sentence {sent_id!r}: missing space in gold "
                        f"text {target!r} at offset {pos}"
                    )
                pos += 1
        bounds.append(tok)
    if tok != n:
        raise AlignmentError(f"sentence {sent_id!r}: gold covers {tok} of {n} tokens")
    return Segmentation(sentence, tuple(bounds))
