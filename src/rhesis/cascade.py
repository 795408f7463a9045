"""Rule cascade segmenter: ordered cut levels applied until spans fit.

Levels run from the strongest break to the weakest: punctuation, clause
onsets, priority prepositions, chunk edges, remaining prepositions, and
finally any word boundary.  Each level is one set of positions over the
whole sentence, found at most once per sentence.  A segment that already
fits is left alone; otherwise the first level with a position inside it
splits it and the smaller pieces continue down the cascade.  A greedy
regrouping pass can then merge adjacent rhesis back together while they
still fit, which undoes over-eager cuts.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field

from .corpus import Segmentation, Sentence, segmentation_from_spans
from .errors import OversizedTokenWarning
from .scoring import _Structure
from .span import SpanConfig, fits_span

__all__ = [
    "CutLevel",
    "CUT_LEVELS",
    "CascadeConfig",
    "find_cuts_at_level",
    "chunk_boundaries",
    "cascade_segment",
    "regroup",
]


@dataclass(frozen=True, slots=True)
class CutLevel:
    rank: int
    name: str


CUT_LEVELS: tuple[CutLevel, ...] = (
    CutLevel(1, "punctuation"),
    CutLevel(2, "clause"),
    CutLevel(3, "priority_preposition"),
    CutLevel(4, "chunk"),
    CutLevel(5, "other_preposition"),
    CutLevel(6, "word"),
)

# Default rule inventories.  Prepositions are French (the bundled corpus);
# deprel sets use Universal Dependencies labels.
_PRIORITY_PREPOSITIONS = frozenset(
    {"afin", "après", "avant", "chez", "contre", "depuis", "malgré", "pendant", "vers"}
)
_CLAUSE_DEPRELS = frozenset(
    {"ccomp", "advcl", "acl", "acl:relcl", "csubj", "parataxis", "conj"}
)
_GLUE_DEPRELS = frozenset(
    {"det", "amod", "nummod", "case", "fixed", "flat", "goeswith", "aux", "cop", "expl"}
)
_CUT_PUNCTUATION = frozenset({",", ";", ":", "—", "(", ")", "«", "»"})

# Regrouping never merges across a sentence-final punctuation mark.
_FINAL_PUNCTUATION = frozenset({".", "!", "?"})

_VERBAL_UPOS = frozenset({"VERB", "AUX"})


@dataclass(frozen=True, slots=True)
class CascadeConfig:
    span: SpanConfig = field(default_factory=SpanConfig)
    priority_prepositions: frozenset[str] = _PRIORITY_PREPOSITIONS
    clause_deprels: frozenset[str] = _CLAUSE_DEPRELS
    glue_deprels: frozenset[str] = _GLUE_DEPRELS
    cut_punctuation: frozenset[str] = _CUT_PUNCTUATION

    def __post_init__(self) -> None:
        for name in ("priority_prepositions", "clause_deprels", "glue_deprels", "cut_punctuation"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")


def _clause_onsets(sentence: Sentence, config: CascadeConfig, index: _Structure) -> set[int]:
    """Cut positions before tokens that introduce a clause.

    A subordinating conjunction, a coordinating conjunction attached to a
    verbal head, or any token bearing a clause-level relation marks a clause;
    the cut lands before the leftmost token of that clause's subtree.
    """
    extents = index.extents
    cuts = set()
    for tok in sentence.tokens:
        if tok.upos == "SCONJ":
            matched = True
        elif tok.upos == "CCONJ" and tok.head != 0:
            matched = sentence.tokens[tok.head - 1].upos in _VERBAL_UPOS
        else:
            matched = tok.deprel in config.clause_deprels
        if matched:
            cuts.add(extents[tok.index][0] - 1)
    return cuts


def find_cuts_at_level(
    sentence: Sentence,
    segment: tuple[int, int],
    level: CutLevel,
    config: CascadeConfig,
) -> set[int]:
    """Cut positions the given level proposes strictly inside ``segment``.

    A position ``i`` separates token ``i`` from token ``i + 1``; valid
    positions for a segment ``(lo, hi)`` are ``lo <= i <= hi - 1``.
    """
    lo, hi = segment
    n = len(sentence.tokens)
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad segment ({lo}, {hi}) for {n} tokens")
    cuts = _level_cuts(sentence, level, config, _Structure(sentence, config.span))
    return {c for c in cuts if lo <= c < hi}


def _level_cuts(
    sentence: Sentence, level: CutLevel, config: CascadeConfig, index: _Structure
) -> set[int]:
    """The level's cut positions over the whole sentence; ``(lo, hi)`` holds ``lo <= c < hi``."""
    toks = sentence.tokens
    name = level.name
    if name == "punctuation":
        marks = config.cut_punctuation
        return {tok.index for tok in toks if tok.upos == "PUNCT" and tok.form in marks}
    if name == "clause":
        return _clause_onsets(sentence, config, index)
    if name in ("priority_preposition", "other_preposition"):
        priority = name == "priority_preposition"
        return {
            tok.index - 1
            for tok in toks
            if tok.upos == "ADP" and (tok.form.lower() in config.priority_prepositions) == priority
        }
    if name == "chunk":
        return chunk_boundaries(sentence, (1, len(toks)), config)
    if name == "word":
        return set(range(1, len(toks)))
    raise ValueError(f"unknown cut level {name!r}")


def chunk_boundaries(
    sentence: Sentence, segment: tuple[int, int], config: CascadeConfig
) -> set[int]:
    """Positions between adjacent tokens that do not belong to one chunk.

    Two neighbours stay glued when one governs the other through a glue
    relation, or when they share a head and both bear glue relations.
    """
    lo, hi = segment
    cuts = set()
    for i in range(lo, hi):
        left = sentence.tokens[i - 1]
        right = sentence.tokens[i]
        glued = (
            (right.head == left.index and right.deprel in config.glue_deprels)
            or (left.head == right.index and left.deprel in config.glue_deprels)
            or (
                left.head == right.head
                and left.deprel in config.glue_deprels
                and right.deprel in config.glue_deprels
            )
        )
        if not glued:
            cuts.add(i)
    return cuts


def cascade_segment(sentence: Sentence, config: CascadeConfig) -> Segmentation:
    """Segment a sentence by recursive application of the cut levels.

    Each piece that does not fit the span is split at the first level (from
    its current position in the cascade) that proposes cuts; pieces continue
    with the next level.  A piece no level can split is emitted as-is with
    an OversizedTokenWarning.  Each level is one sorted, sentence-wide list
    of positions, found at most once per sentence; a piece reads its cuts
    as the slice of that list between its bounds.
    """
    spans: list[tuple[int, int]] = []
    index = _Structure(sentence, config.span)
    found: dict[CutLevel, list[int]] = {}

    def descend(lo: int, hi: int, level_index: int) -> None:
        if index.measure(lo, hi) <= index.max_units:
            spans.append((lo, hi))
            return
        for next_index, level in enumerate(CUT_LEVELS[level_index:], level_index + 1):
            if level not in found:
                found[level] = sorted(_level_cuts(sentence, level, config, index))
            positions = found[level]
            cuts = positions[bisect_left(positions, lo) : bisect_left(positions, hi)]
            if cuts:
                bounds = [lo - 1, *cuts, hi]
                for a, b in zip(bounds, bounds[1:]):
                    descend(a + 1, b, next_index)
                return
        spans.append((lo, hi))
        warnings.warn(
            f"sentence {sentence.sent_id!r}: {sentence.span_text(lo, hi)!r} "
            f"exceeds the span and cannot be split further",
            OversizedTokenWarning,
            stacklevel=3,
        )

    descend(1, len(sentence.tokens), 0)
    return segmentation_from_spans(sentence, spans)


def regroup(sentence: Sentence, seg: Segmentation, config: CascadeConfig) -> Segmentation:
    """Greedily merge adjacent rhesis whose joint surface still fits.

    Scans left to right, repeatedly absorbing the next rhesis into the
    current one while the merged text fits the span; never merges across a
    sentence-final punctuation mark (., !, ?).
    """
    if not seg.rhesis:
        return seg
    merged: list[tuple[int, int]] = []
    cur_start, cur_end = seg.rhesis[0].start, seg.rhesis[0].end
    for nxt in seg.rhesis[1:]:
        boundary_tok = sentence.tokens[cur_end - 1]
        blocked = boundary_tok.upos == "PUNCT" and boundary_tok.form in _FINAL_PUNCTUATION
        if not blocked and fits_span(sentence.span_text(cur_start, nxt.end), config.span):
            cur_end = nxt.end
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = nxt.start, nxt.end
    merged.append((cur_start, cur_end))
    return segmentation_from_spans(sentence, merged)
