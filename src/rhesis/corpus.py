"""Parsed-sentence data model: CoNLL-U ingestion, gold files, tree queries.

The segmenters operate on sentences that were dependency-parsed elsewhere and
serialized as CoNLL-U.  Only five of the ten columns matter here (ID, FORM,
UPOS, HEAD, DEPREL) plus the MISC column's ``SpaceAfter=No`` flag, which
``Sentence.from_tokens`` reads once per token to build the surface text and
each token's offsets in it.  Gold segmentations travel in a plain
text format: one rhesis per line, a blank line between sentences, ``#doc ``
lines carrying document labels, and other ``#`` lines ignored as comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        return "SpaceAfter=No" not in self.misc.split("|")


@dataclass(frozen=True, slots=True)
class Sentence:
    """An ordered token sequence forming one dependency tree.

    ``text[starts[i]:ends[i]]`` is the form of ``tokens[i]``, and one space
    follows every token but the last unless its MISC says ``SpaceAfter=No``.
    The offsets follow from the tokens: ``==``, ``hash`` and ``repr`` skip them.
    """

    sent_id: str
    tokens: tuple[Token, ...]
    text: str
    starts: tuple[int, ...] = field(repr=False, compare=False)
    ends: tuple[int, ...] = field(repr=False, compare=False)

    @classmethod
    def from_tokens(cls, sent_id: str, tokens: tuple[Token, ...] | list) -> "Sentence":
        """Build a sentence, validating the tree and laying out its text.

        Raises StructuralError when heads are out of range, the root count is
        not exactly one, or the head relation contains a cycle.
        """
        toks = tuple(tokens)
        n = len(toks)
        if n == 0:
            raise StructuralError(f"sentence {sent_id!r}: no tokens")
        roots = 0
        for tok in toks:
            if not 0 <= tok.head <= n or tok.head == tok.index:
                raise StructuralError(
                    f"sentence {sent_id!r}: head {tok.head} of token "
                    f"{tok.index} ({tok.form!r}) out of range"
                )
            if tok.head == 0:
                roots += 1
        if roots != 1:
            raise StructuralError(f"sentence {sent_id!r}: {roots} roots (need exactly 1)")
        # Cycle check: every token has one head, so the walk down from the
        # root reaches each token at most once, and it reaches exactly the
        # tokens whose head chain ends at the root.  Any other token's chain
        # loops; the first of them in index order is the one named.
        order = _top_down(toks)[1]
        if len(order) < n:
            reached = set(order)
            looping = next(tok.index for tok in toks if tok.index not in reached)
            raise StructuralError(f"sentence {sent_id!r}: cycle through token {looping}")
        parts, starts, ends, offset = [], [], [], 0
        for tok in toks:
            part = tok.form + " " if tok.space_after else tok.form
            parts.append(part)
            starts.append(offset)
            ends.append(offset + len(tok.form))
            offset += len(part)
        text = "".join(parts)[: ends[-1]]  # no space after the last token
        return cls(sent_id, toks, text, tuple(starts), tuple(ends))

    def __len__(self) -> int:
        return len(self.tokens)

    def span_text(self, start: int, end: int) -> str:
        """Surface text of tokens ``start..end`` (1-based, inclusive)."""
        if not 1 <= start <= end <= len(self.tokens):
            raise ValueError(f"bad span ({start}, {end}) for {len(self.tokens)} tokens")
        return self.text[self.starts[start - 1] : self.ends[end - 1]]


def _top_down(tokens: tuple[Token, ...]) -> tuple[list[list[int]], list[int]]:
    """Each token's dependents in index order (entry 0: the root), and a top-down order.

    The order lists the tokens the root reaches: every token, in a tree.
    """
    children: list[list[int]] = [[] for _ in range(len(tokens) + 1)]
    for tok in tokens:
        children[tok.head].append(tok.index)
    order = list(children[0])
    for node in order:
        order.extend(children[node])
    return children, order


def token_depth(sentence: Sentence, index: int) -> int:
    """Number of head steps from token ``index`` to the root (root: 0)."""
    if not 1 <= index <= len(sentence.tokens):
        raise ValueError(f"token index {index} out of range")
    depth = 0
    cur = sentence.tokens[index - 1].head
    while cur != 0:
        depth += 1
        cur = sentence.tokens[cur - 1].head
    return depth


def subtree_span(sentence: Sentence, index: int) -> tuple[int, int]:
    """Leftmost and rightmost token index in the subtree rooted at ``index``."""
    if not 1 <= index <= len(sentence.tokens):
        raise ValueError(f"token index {index} out of range")
    children: dict[int, list[int]] = {}
    for tok in sentence.tokens:
        children.setdefault(tok.head, []).append(tok.index)
    lo = hi = index
    stack = [index]
    while stack:
        node = stack.pop()
        lo = min(lo, node)
        hi = max(hi, node)
        stack.extend(children.get(node, ()))
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
    each span must begin right after its predecessor ends.
    """
    expected = 1
    rhesis = []
    for start, end in spans:
        if start != expected or end < start:
            raise ValueError(f"spans do not tile the sentence at ({start}, {end})")
        rhesis.append(Rhesis(start=start, end=end, text=sentence.span_text(start, end)))
        expected = end + 1
    if expected != len(sentence.tokens) + 1:
        raise ValueError("spans do not cover the sentence")
    return Segmentation(sentence_id=sentence.sent_id, rhesis=tuple(rhesis))


def segmentation_from_cuts(sentence: Sentence, cuts: tuple[int, ...] | list) -> Segmentation:
    """Build a Segmentation from internal cut positions (strictly increasing)."""
    n = len(sentence.tokens)
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
    only syntactic words are kept.  CRLF input is accepted.  Sentences
    without a ``# sent_id`` comment get ordinal ids ``s1``, ``s2``, ...
    A sentence id that repeats an earlier one, given or ordinal, is an error.
    """
    data = _decoded(data, ParseError)
    sentences: list[Sentence] = []
    seen: set[str] = set()
    pending: list[Token] = []
    sent_id: str | None = None
    id_line = 0  # the sent_id comment's line, else the sentence's first line

    def flush() -> None:
        nonlocal pending, sent_id
        if pending:
            name = sent_id if sent_id is not None else f"s{len(sentences) + 1}"
            if name in seen:
                raise ParseError(f"duplicate sentence id {name!r}", line=id_line)
            seen.add(name)
            sentences.append(Sentence.from_tokens(name, pending))
        pending = []
        sent_id = None

    for lineno, raw in enumerate(data.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if not pending and sent_id is None:
            id_line = lineno
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id") and "=" in body:
                sent_id = body.split("=", 1)[1].strip()
                id_line = lineno
            continue
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
        if index != len(pending) + 1:
            raise ParseError(
                f"token id {index} out of sequence (expected {len(pending) + 1})",
                line=lineno,
            )
        try:
            head = int(cols[6])
        except ValueError:
            raise ParseError(f"unreadable head {cols[6]!r}", line=lineno) from None
        misc = cols[9].strip()
        pending.append(
            Token(
                index=index,
                form=cols[1],
                upos=cols[3],
                head=head,
                deprel=cols[7],
                misc="" if misc == "_" else misc,
            )
        )
    flush()
    return sentences


def parse_gold(data: str | bytes) -> list[tuple[str, list[str]]]:
    """Parse a gold rhesis stream into ``(doc_label, rhesis_lines)`` groups.

    Each group covers one sentence.  ``#doc <label>`` lines set the label for
    the groups that follow; other ``#`` lines are comments.  A ``#doc`` line
    inside a sentence block is malformed.
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
        current.append(line)
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
    forms = [_normalize(tok.form) for tok in sentence.tokens]
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
                        f"inside token {tok + 1} ({sentence.tokens[tok].form!r})"
                    )
                raise AlignmentError(
                    f"sentence {sentence.sent_id!r}: gold text {target!r} does not "
                    f"match token {tok + 1} ({sentence.tokens[tok].form!r}) at offset {pos}"
                )
            pos += len(form)
            tok += 1
            if pos == len(target):
                break
            if tok < len(forms) and sentence.starts[tok] > sentence.ends[tok - 1]:
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
