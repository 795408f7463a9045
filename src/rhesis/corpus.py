"""Parsed-sentence data model: CoNLL-U ingestion, gold files, tree queries.

The segmenters operate on sentences that were dependency-parsed elsewhere and
serialized as CoNLL-U.  Only five of the ten columns matter here (ID, FORM,
UPOS, HEAD, DEPREL) plus the MISC column's ``SpaceAfter=No`` flag.  A
``Sentence`` keeps them as parallel tuples (``forms``, ``upos``, ``heads``,
``deprels``, ``miscs``), and lays out its surface text, each token's offsets
in it and its tree traversal once, when it is built; ``Token`` objects are
made only when a sentence's ``tokens`` are read.

``parse_conllu`` turns CRLF line ends into LF, then reads a document a
blank-line block at a time, and ``_word_columns`` is the one reader of word
rows.  It cuts a block's rows into cells once, with no per-line work, and
when they pass the column tests (10 columns, word ids that read as ``1..k``
once ranges and empty nodes are dropped, non-blank forms, integer heads)
the five columns are slices of those cells.  A block with a comment or a
blank-looking line among its rows is first sorted line by line, comments
lifted out.  Rows the reader refuses are walked only to raise ``ParseError``
at the first bad one, so every error names its line.  ``Sentence._build``
tests forms and heads on whole columns, and a sentence that fails a test
goes to the per-token checks, which name the first bad token.  The root
count and the cycle check raise directly.

Gold segmentations travel in a plain text format: one rhesis per line, a
blank line between sentences, ``#doc `` lines carrying document labels, and
other ``#`` lines ignored as comments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, eq, methodcaller

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
    "subtree_span",
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
    def _build(cls, sent_id: str, forms, upos, heads, deprels, miscs) -> "Sentence":
        """The sentence the column tuples describe: the one validation, traversal and layout.

        The checks run on whole columns; only when one fails does
        ``_check_tokens`` walk the tokens to name the first bad one.
        """
        n = len(forms)
        if n == 0:
            raise StructuralError(f"sentence {sent_id!r}: no tokens")
        if (
            not all(map(str.strip, forms))
            or "\n" in "".join(forms)
            or min(heads) < 0
            or max(heads) > n
            or any(map(eq, heads, range(1, n + 1)))
        ):
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
        parts = [
            form + " " if not misc or _space_after(misc) else form
            for form, misc in zip(forms, miscs)
        ]
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


def subtree_span(sentence: Sentence, index: int) -> tuple[int, int]:
    """Leftmost and rightmost token index in the subtree rooted at ``index``."""
    if not 1 <= index <= len(sentence):
        raise ValueError(f"token index {index} out of range")
    children = sentence._tree[0]
    lo = hi = index
    stack = [index]
    while stack:
        node = stack.pop()
        lo = min(lo, node)
        hi = max(hi, node)
        stack.extend(children[node])
    return lo, hi


@dataclass(frozen=True, slots=True)
class Rhesis:
    """One unit of meaning: a contiguous token span and its surface text."""

    start: int
    end: int
    text: str


@dataclass(frozen=True, slots=True)
class Segmentation:
    """A partition of one sentence into rhesis, in order."""

    sentence_id: str
    rhesis: tuple[Rhesis, ...]

    def spans(self) -> tuple[tuple[int, int], ...]:
        return tuple((r.start, r.end) for r in self.rhesis)

    def cuts(self) -> tuple[int, ...]:
        """Internal boundary positions (a cut at ``i`` splits token i from i+1)."""
        return tuple(r.end for r in self.rhesis[:-1])

    @property
    def token_count(self) -> int:
        return self.rhesis[-1].end if self.rhesis else 0


def segmentation_from_spans(
    sentence: Sentence, spans: list[tuple[int, int]] | tuple
) -> Segmentation:
    """Build a Segmentation from 1-based inclusive spans over ``sentence``.

    The spans must tile the sentence: start at 1, end at the token count, and
    each span must begin right after its predecessor ends.  Texts are sliced
    from ``text``, ``starts`` and ``ends``; no other column is read.
    """
    text, starts, ends, n = sentence.text, sentence.starts, sentence.ends, len(sentence)
    expected = 1
    rhesis = []
    for start, end in spans:
        if not expected == start <= end <= n:
            raise ValueError(f"spans do not tile the sentence at ({start}, {end})")
        rhesis.append(Rhesis(start, end, text[starts[start - 1] : ends[end - 1]]))
        expected = end + 1
    if expected != n + 1:
        raise ValueError("spans do not cover the sentence")
    return Segmentation(sentence_id=sentence.sent_id, rhesis=tuple(rhesis))


def segmentation_from_cuts(sentence: Sentence, cuts: tuple[int, ...] | list) -> Segmentation:
    """Build a Segmentation from internal cut positions (strictly increasing)."""
    n = len(sentence)
    bounds = [0, *cuts, n]
    spans = [(bounds[i] + 1, bounds[i + 1]) for i in range(len(bounds) - 1)]
    return segmentation_from_spans(sentence, spans)


def _decoded(data: str | bytes, error: type[RhesisError]) -> str:
    """``data`` as text; bytes must be UTF-8, else ``error`` is raised."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not valid UTF-8: {exc}") from None


def parse_conllu(data: str | bytes) -> list[Sentence]:
    """Parse a CoNLL-U stream into validated sentences.

    Multiword-token ranges (``3-4``) and empty nodes (``8.1``) are skipped;
    only syntactic words are kept, and each needs a form that is not empty
    or only whitespace.  CRLF input is accepted.  Sentences without a
    ``# sent_id`` comment get ordinal ids ``s1``, ``s2``, ...  A sentence id
    that repeats an earlier one, given or ordinal, is an error.

    Every block's word rows are read column-wise by ``_word_columns`` (see
    the module docstring); the rows of a block it refuses are walked only to
    name the line of the first error.
    """
    text = _decoded(data, ParseError)
    if "\r" in text:  # far cheaper than a replace that finds nothing
        # A CR this leaves (one of a run, or ending the text) changes nothing: a
        # row's last cell and a comment's id are stripped, and a line of CRs is blank.
        text = text.replace("\r\n", "\n")
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for sent_id, id_line, columns in _blocks(text):
        if not columns[0]:
            continue
        name = sent_id if sent_id is not None else f"s{len(sentences) + 1}"
        if name in seen:
            raise ParseError(f"duplicate sentence id {name!r}", line=id_line)
        seen.add(name)
        sentences.append(Sentence._build(name, *columns))
    return sentences


def _blocks(text: str):
    """Each block of ``text``: ``(sent_id, id line, columns)``.

    A chunk between two ``"\\n\\n"`` that is comment lines and then word
    rows ``_word_columns`` accepts is one block.  Any other chunk is sorted
    into blocks by ``_line_blocks``, whose rows go to the reader again; rows
    it refuses go to ``_raise_bad_row``.  The id is the last ``# sent_id``
    comment's (None without one); without one, the id line is the first
    word's.
    """
    start = 1  # the line the next chunk starts on
    for chunk in text.split("\n\n"):
        first_line, start = start, start + chunk.count("\n") + 2
        body = chunk.lstrip("\n")
        lineno = first_line + len(chunk) - len(body)
        body = body.rstrip("\n")
        sent_id, id_line = None, 0
        rows = 0  # where the word rows start
        while body.startswith("#", rows):
            end = body.find("\n", rows)
            if end < 0:
                end = len(body)
            comment_id = _comment_id(body[rows:end])
            if comment_id is not None:
                sent_id, id_line = comment_id, lineno
            rows = end + 1
            lineno += 1
        if rows >= len(body):
            continue
        words = None if body.find("\n#", rows) >= 0 else _word_columns(body[rows:])
        if words is not None:
            first, columns = words
            yield sent_id, id_line if sent_id is not None else lineno + first, columns
            continue
        for sent_id, id_line, linenos, lines in _line_blocks(chunk, first_line):
            words = _word_columns("\n".join(lines))
            if words is None:
                _raise_bad_row(zip(linenos, lines))
            first, columns = words
            yield sent_id, id_line if sent_id is not None else linenos[first], columns


_TABS = methodcaller("count", "\t")
_NO_MISC = {"_": ""}  # _NO_MISC.get(misc, misc): the MISC column as a Sentence keeps it
# Once every newline of the word rows is cut as a cell of its own start, the
# ID cells of rows 1, 2, 3, ... read "1", "\n2", "\n3", ...
_ROW_IDS = ["1", *(f"\n{i}" for i in range(2, 513))]


def _row_ids(count: int) -> list[str]:
    """The ID cells of ``count`` rows numbered from 1, as ``_word_columns`` cuts them."""
    if count <= len(_ROW_IDS):
        return _ROW_IDS[:count]
    return [*_ROW_IDS, *(f"\n{i}" for i in range(len(_ROW_IDS) + 1, count + 1))]


def _word_columns(body: str):
    """Word rows, one a line, read column-wise: (first word's row index, columns), or None.

    The columns are the five tuples ``Sentence._build`` takes, empty when
    every row is a multiword range or an empty node.  None exactly when
    ``_raise_bad_row`` raises on the rows: a row without 10 columns, word
    ids that ``int`` does not read as ``1..k``, a blank form or a head that
    is not an integer.
    """
    # Each newline starts a cell, so when the rows' ID cells are exactly
    # _row_ids(rows) and there are 10 cells a row, every row has 10 columns.
    rows = body.count("\n") + 1
    cells = body.replace("\n", "\t\n").split("\t")
    first = 0
    if len(cells) != 10 * rows or cells[::10] != _row_ids(rows):
        # multiword ranges, empty nodes or ids such as "01": check every row,
        # drop the ranges and empty nodes, and read the ids with int
        lines = body.split("\n")
        if set(map(_TABS, lines)) != {9}:
            return None
        ids = "\t".join(lines).split("\t")[::10]
        words = [i for i, ident in enumerate(ids) if "-" not in ident and "." not in ident]
        if not words:
            return first, ((), (), (), (), ())
        first = words[0]
        cells = "\t\n".join([lines[i] for i in words]).split("\t")
        try:
            if list(map(int, cells[::10])) != list(range(1, len(words) + 1)):
                return None
        except ValueError:
            return None
    forms = cells[1::10]
    if not all(map(str.strip, forms)):
        return None
    try:
        heads = tuple(map(int, cells[6::10]))
    except ValueError:
        return None
    miscs = list(map(str.strip, cells[9::10]))
    return first, (
        tuple(forms),
        tuple(cells[3::10]),
        heads,
        tuple(cells[7::10]),
        tuple(map(_NO_MISC.get, miscs, miscs)),
    )


def _raise_bad_row(rows):
    """Raise ParseError at the first bad row of ``(line number, line)`` pairs.

    Called only on rows ``_word_columns`` refused, so one of them is bad.
    """
    expected = 1  # the next word's id
    for lineno, line in rows:
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}", line=lineno)
        ident = cols[0]
        if "-" in ident or "." in ident:
            continue  # multiword range / empty node: not a syntactic word
        try:
            index = int(ident)
        except ValueError:
            raise ParseError(f"unreadable token id {ident!r}", line=lineno) from None
        if index != expected:
            raise ParseError(
                f"token id {index} out of sequence (expected {expected})", line=lineno
            )
        if not cols[1].strip():  # rendered, it would read as a sentence break
            raise ParseError(f"token {index} has an empty or whitespace-only form", line=lineno)
        try:
            int(cols[6])
        except ValueError:
            raise ParseError(f"unreadable head {cols[6]!r}", line=lineno) from None
        expected += 1
    raise AssertionError("_word_columns refused rows that hold no bad row")


def _comment_id(line: str) -> str | None:
    """The sentence id a ``#`` comment line sets, or None."""
    body = line[1:].strip()
    if body.startswith("sent_id") and "=" in body:
        return body.split("=", 1)[1].strip()
    return None


def _line_blocks(chunk: str, first_line: int):
    """Each blank-line-separated block of ``chunk``: sent_id, its line, row numbers, rows.

    ``chunk`` starts on line ``first_line``.  Comment lines are lifted out:
    the id is the last ``# sent_id`` comment's (None without one), and the
    rows are the other lines, with their line numbers.
    """
    sent_id: str | None = None
    id_line = 0
    linenos: list[int] = []
    rows: list[str] = []
    for lineno, line in enumerate(chunk.split("\n"), start=first_line):
        if not line or line.isspace():
            if rows:
                yield sent_id, id_line, linenos, rows
                linenos, rows = [], []
            sent_id = None
        elif line.startswith("#"):
            comment_id = _comment_id(line)
            if comment_id is not None:
                sent_id, id_line = comment_id, lineno
        else:
            linenos.append(lineno)
            rows.append(line)
    if rows:
        yield sent_id, id_line, linenos, rows


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
    for lineno, raw in enumerate(data.split("\n"), start=1):
        line = raw.rstrip("\r")
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


def _normalize(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def align_gold(
    sentences: list[Sentence], gold: list[tuple[str, list[str]]]
) -> AlignedCorpus:
    """Match gold rhesis lines onto parsed sentences, producing token spans.

    The two inputs must cover the same sentences in the same order.  Matching
    is whitespace-normalized; every rhesis must start and end on a token
    boundary, and together they must consume the whole sentence.
    """
    if len(sentences) != len(gold):
        raise AlignmentError(
            f"sentence count mismatch: {len(sentences)} parsed vs {len(gold)} gold groups"
        )
    entries = []
    for sentence, (label, lines) in zip(sentences, gold):
        seg = _align_sentence(sentence, lines)
        entries.append(AlignedEntry(sentence=sentence, gold=seg, doc_label=label))
    return AlignedCorpus(entries=tuple(entries))


def _align_sentence(sentence: Sentence, lines: list[str]) -> Segmentation:
    """The gold spans of ``lines``: each line read as the exact text of its tokens, if it is.

    A line that is not (other whitespace, a boundary inside a token, too
    little or too much text) sends the whole sentence to
    ``_align_normalized``, which accepts every such exact reading too.
    """
    text, starts, ends = sentence.text, sentence.starts, sentence.ends
    n = len(ends)
    spans: list[tuple[int, int]] = []
    tok = 0  # tokens fully consumed so far
    for line in lines:
        if tok == n:
            return _align_normalized(sentence, lines)
        p = starts[tok]
        e = p + len(line)
        j = bisect_left(ends, e, tok)
        if j == n or ends[j] != e or text[p:e] != line:
            return _align_normalized(sentence, lines)
        spans.append((tok + 1, j + 1))
        tok = j + 1
    if tok != n:
        return _align_normalized(sentence, lines)
    return segmentation_from_spans(sentence, spans)


def _align_normalized(sentence: Sentence, lines: list[str]) -> Segmentation:
    forms = [_normalize(form) for form in sentence.forms]
    text, starts = sentence.text, sentence.starts
    spans: list[tuple[int, int]] = []
    tok = 0  # tokens fully consumed so far
    for line in lines:
        target = _normalize(line)
        if not target:
            raise AlignmentError(f"sentence {sentence.sent_id!r}: empty gold rhesis line")
        start = tok + 1
        pos = 0
        while True:
            if tok >= len(forms):
                raise AlignmentError(
                    f"sentence {sentence.sent_id!r}: gold text {target!r} "
                    f"continues past the last token"
                )
            form = forms[tok]
            if target[pos : pos + len(form)] != form:
                if form.startswith(target[pos:]):
                    raise AlignmentError(
                        f"sentence {sentence.sent_id!r}: rhesis boundary falls "
                        f"inside token {tok + 1} ({sentence.forms[tok]!r})"
                    )
                raise AlignmentError(
                    f"sentence {sentence.sent_id!r}: gold text {target!r} does not "
                    f"match token {tok + 1} ({sentence.forms[tok]!r}) at offset {pos}"
                )
            pos += len(form)
            tok += 1
            if pos == len(target):
                break
            # normalized, whitespace at the joint (the space after a token, or
            # either form's edge) reads as one space
            if tok < len(forms) and (
                text[starts[tok] - 1].isspace() or text[starts[tok]].isspace()
            ):
                if target[pos] != " ":
                    raise AlignmentError(
                        f"sentence {sentence.sent_id!r}: missing space in gold "
                        f"text {target!r} at offset {pos}"
                    )
                pos += 1
        spans.append((start, tok))
    if tok != len(forms):
        raise AlignmentError(
            f"sentence {sentence.sent_id!r}: gold covers {tok} of {len(forms)} tokens"
        )
    return segmentation_from_spans(sentence, spans)
