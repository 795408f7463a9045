"""Ingestion as it stood before ``Sentence`` held its tokens as columns.

``Sentence`` (with ``from_tokens``), ``_top_down``, ``parse_conllu``,
``_normalize`` and ``_align_sentence`` are kept verbatim from that version:
every parsed row becomes a ``Token``, the sentence is built from them, and
each gold line is matched form by form after whitespace normalization.
``test_corpus_reference`` checks the current module against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from rhesis.corpus import Segmentation, Token, _decoded, segmentation_from_spans
from rhesis.errors import AlignmentError, ParseError, StructuralError


@dataclass(frozen=True, slots=True)
class Sentence:
    """An ordered token sequence forming one dependency tree.

    ``text[starts[i]:ends[i]]`` is the form of ``tokens[i]``, and one space
    follows every token but the last unless its MISC says ``SpaceAfter=No``.
    ``_tree`` keeps the ``_top_down`` traversal of the cycle check for the
    per-sentence index; it is read, never changed.  The offsets and the
    traversal follow from the tokens: ``==``, ``hash`` and ``repr`` skip them.
    """

    sent_id: str
    tokens: tuple[Token, ...]
    text: str
    starts: tuple[int, ...] = field(repr=False, compare=False)
    ends: tuple[int, ...] = field(repr=False, compare=False)
    _tree: tuple[list[list[int]], list[int]] = field(repr=False, compare=False)

    @classmethod
    def from_tokens(cls, sent_id: str, tokens: tuple[Token, ...] | list) -> "Sentence":
        """Build a sentence, validating the tree and laying out its text.

        Raises StructuralError when a form is empty or only whitespace (its
        rhesis would render as a sentence break), when heads are out of range,
        the root count is not exactly one, or the head relation contains a
        cycle.
        """
        toks = tuple(tokens)
        n = len(toks)
        if n == 0:
            raise StructuralError(f"sentence {sent_id!r}: no tokens")
        roots = 0
        for tok in toks:
            if not tok.form.strip():
                raise StructuralError(
                    f"sentence {sent_id!r}: token {tok.index} has an empty or "
                    f"whitespace-only form ({tok.form!r})"
                )
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
        tree = _top_down(toks)
        order = tree[1]
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
        return cls(sent_id, toks, text, tuple(starts), tuple(ends), tree)

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


def parse_conllu(data: str | bytes) -> list[Sentence]:
    """Parse a CoNLL-U stream into validated sentences.

    Multiword-token ranges (``3-4``) and empty nodes (``8.1``) are skipped;
    only syntactic words are kept, and each needs a form that is not empty
    or only whitespace.  CRLF input is accepted.  Sentences
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
            if "=" in body and body.split("=", 1)[0].strip() == "sent_id":
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
        if not cols[1].strip():  # rendered, it would read as a sentence break
            raise ParseError(f"token {index} has an empty or whitespace-only form", line=lineno)
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


def _normalize(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def _align_sentence(sentence: Sentence, lines: list[str]) -> Segmentation:
    forms = [_normalize(tok.form) for tok in sentence.tokens]
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
