"""Rule cascade segmenter: ordered cut levels applied until spans fit.

Levels run from the strongest break to the weakest: punctuation, clause
onsets, priority prepositions, chunk edges, remaining prepositions, and
finally any word boundary.  Each level is one set of positions over the
whole sentence, found at most once per sentence.  A segment that already
fits is left alone; otherwise the first level with a position inside it
splits it and the smaller pieces continue down the cascade.  A greedy
regrouping pass can then merge adjacent rhesis back together while they
still fit, which undoes over-eager cuts.  Both passes read each fit off the
sentence index, ``hi[b] - lo[a]``, which equals ``text_measure`` of the text.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field

from .corpus import Segmentation, Sentence, segmentation_from_spans
from .errors import OversizedTokenWarning
from .scoring import _Structure
from .span import SpanConfig

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


def _clause_onsets(sentence: Sentence, config: CascadeConfig) -> set[int]:
    """Cut positions before tokens that introduce a clause.

    A subordinating conjunction, a coordinating conjunction attached to a
    verbal head, or any token bearing a clause-level relation marks a clause;
    the cut lands before the leftmost token of that clause's subtree.  Each
    subtree's left edge comes from one bottom-up pass over the traversal the
    sentence kept of its cycle check.
    """
    upos, heads, deprels = sentence.upos, sentence.heads, sentence.deprels
    left = list(range(len(sentence) + 1))
    for node in reversed(sentence._tree[1]):
        head = heads[node - 1]
        if left[node] < left[head]:
            left[head] = left[node]
    cuts = set()
    for i, pos in enumerate(upos, 1):
        if pos == "SCONJ":
            matched = True
        elif pos == "CCONJ" and heads[i - 1] != 0:
            matched = upos[heads[i - 1] - 1] in _VERBAL_UPOS
        else:
            matched = deprels[i - 1] in config.clause_deprels
        if matched:
            cuts.add(left[i] - 1)
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
    lo, hi = _checked(sentence, segment)
    return {c for c in _level_cuts(sentence, level, config) if lo <= c < hi}


def _checked(sentence: Sentence, segment: tuple[int, int]) -> tuple[int, int]:
    """``segment`` as ``(lo, hi)``, refused unless ``1 <= lo <= hi <= len(sentence)``."""
    lo, hi = segment
    n = len(sentence)
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad segment ({lo}, {hi}) for {n} tokens")
    return lo, hi


def _level_cuts(sentence: Sentence, level: CutLevel, config: CascadeConfig) -> set[int]:
    """The level's cut positions over the whole sentence; ``(lo, hi)`` holds ``lo <= c < hi``."""
    upos, forms = sentence.upos, sentence.forms
    name = level.name
    if name == "punctuation":
        marks = config.cut_punctuation
        return {i for i, pos in enumerate(upos, 1) if pos == "PUNCT" and forms[i - 1] in marks}
    if name == "clause":
        return _clause_onsets(sentence, config)
    if name in ("priority_preposition", "other_preposition"):
        priority = name == "priority_preposition"
        return {
            i - 1
            for i, pos in enumerate(upos, 1)
            if pos == "ADP" and (forms[i - 1].lower() in config.priority_prepositions) == priority
        }
    if name == "chunk":
        return chunk_boundaries(sentence, (1, len(sentence)), config)
    if name == "word":
        return set(range(1, len(sentence)))
    raise ValueError(f"unknown cut level {name!r}")


def chunk_boundaries(
    sentence: Sentence, segment: tuple[int, int], config: CascadeConfig
) -> set[int]:
    """Positions between adjacent tokens that do not belong to one chunk.

    Two neighbours stay glued when one governs the other through a glue
    relation, or when they share a head and both bear glue relations.
    """
    lo, hi = _checked(sentence, segment)
    heads, deprels, glue = sentence.heads, sentence.deprels, config.glue_deprels
    cuts = set()
    for i in range(lo, hi):  # left token i, right token i + 1
        left_head, right_head = heads[i - 1], heads[i]
        glued = (
            (right_head == i and deprels[i] in glue)
            or (left_head == i + 1 and deprels[i - 1] in glue)
            or (left_head == right_head and deprels[i - 1] in glue and deprels[i] in glue)
        )
        if not glued:
            cuts.add(i)
    return cuts


def cascade_segment(sentence: Sentence, config: CascadeConfig) -> Segmentation:
    """Segment a sentence by recursive application of the cut levels.

    Each piece that does not fit the span is split at the first level (from
    its current position in the cascade) that proposes cuts; pieces continue
    with the next level.  A piece no level can split is emitted as-is with
    an OversizedTokenWarning naming the caller.  Each level is one sorted,
    sentence-wide list of positions, found at most once per sentence; a
    piece reads its cuts as the slice of that list between its bounds.
    """
    spans: list[tuple[int, int]] = []
    index = _Structure(sentence, config.span)
    hi, lo, cap = index.hi, index.lo, index.max_units
    found: dict[int, list[int]] = {}

    def descend(a: int, b: int, level_index: int) -> None:
        if hi[b] - lo[a] <= cap:
            spans.append((a, b))
            return
        for next_index, level in enumerate(CUT_LEVELS[level_index:], level_index + 1):
            if next_index not in found:
                found[next_index] = sorted(_level_cuts(sentence, level, config))
            positions = found[next_index]
            cuts = positions[bisect_left(positions, a) : bisect_left(positions, b)]
            if cuts:
                bounds = [a - 1, *cuts, b]
                for start, end in zip(bounds, bounds[1:]):
                    descend(start + 1, end, next_index)
                return
        spans.append((a, b))  # no level cuts it: it does not fit

    descend(1, len(sentence), 0)
    for a, b in spans:
        if hi[b] - lo[a] > cap:
            warnings.warn(
                f"sentence {sentence.sent_id!r}: {sentence.span_text(a, b)!r} "
                f"exceeds the span and cannot be split further",
                OversizedTokenWarning,
                stacklevel=2,
            )
    return segmentation_from_spans(sentence, spans)


def regroup(sentence: Sentence, seg: Segmentation, config: CascadeConfig) -> Segmentation:
    """Greedily merge adjacent rhesis whose joint surface still fits.

    Scans left to right, repeatedly absorbing the next rhesis into the
    current one while the merged text fits the span; never merges across a
    sentence-final punctuation mark (., !, ?).  Each merge is decided by the
    sentence index: ``hi[end] - lo[start]`` is ``text_measure`` of the merged text.
    Raises ValueError unless ``seg`` is a tiling of ``sentence`` under its id.
    """
    if not seg.rhesis:
        return seg
    if seg.sentence_id != sentence.sent_id:
        raise ValueError(f"segmentation of {seg.sentence_id!r} given for {sentence.sent_id!r}")
    if seg.token_count > len(sentence):
        raise ValueError(f"segmentation runs to token {seg.token_count} of {len(sentence)}")
    index = _Structure(sentence, config.span)
    hi, lo, cap = index.hi, index.lo, index.max_units
    merged: list[tuple[int, int]] = []
    cur_start, cur_end = seg.rhesis[0].start, seg.rhesis[0].end
    for nxt in seg.rhesis[1:]:
        if not cur_end + 1 == nxt.start <= nxt.end:
            raise ValueError(f"spans do not tile the sentence at ({nxt.start}, {nxt.end})")
        last = cur_end - 1
        blocked = sentence.upos[last] == "PUNCT" and sentence.forms[last] in _FINAL_PUNCTUATION
        if not blocked and hi[nxt.end] - lo[cur_start] <= cap:
            cur_end = nxt.end
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = nxt.start, nxt.end
    merged.append((cur_start, cur_end))
    return segmentation_from_spans(sentence, merged)
