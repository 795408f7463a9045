"""Rule cascade segmenter: ordered cut levels applied until spans fit.

Levels run from the strongest break to the weakest: punctuation, clause
onsets, priority prepositions, chunk edges, remaining prepositions, and
finally any word boundary.  A segment that already fits is left alone.
Each level makes one pass over the pieces that do not, splitting them at
its positions inside them, and the parts that still do not fit continue at
the next level.  So a level reads each pending token at most once; only the
clause onsets are one sentence-wide list, built once per sentence.  A
greedy regrouping pass can then merge adjacent rhesis back together while
they still fit, which undoes over-eager cuts.  Both passes read each fit
off the sentence index: ``hi[b] - lo[a]`` is the text's ``text_measure``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field

from .corpus import Segmentation, Sentence, segmentation_from_cuts
from .scoring import _finish, _Structure
from .span import SpanConfig

__all__ = [
    "CutLevel",
    "CUT_LEVELS",
    "CascadeConfig",
    "find_cuts_at_level",
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
    lo, hi = segment
    n = len(sentence)
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad segment ({lo}, {hi}) for {n} tokens")
    return set(_piece_cuts(sentence, level, config)(lo, hi))


def _piece_cuts(
    sentence: Sentence, level: CutLevel, config: CascadeConfig
) -> Callable[[int, int], list[int]]:
    """The level's rule for one piece: ``cuts(a, b)`` lists its positions ``a <= c < b`` in order.

    Only the clause rule reads outside the piece: a token outside it can set
    a clause onset, its subtree's left edge, so the rule slices one sorted,
    sentence-wide list, built here.
    """
    upos, forms, name = sentence.upos, sentence.forms, level.name
    if name == "punctuation":
        marks = config.cut_punctuation
        return lambda a, b: [
            c for c in range(a, b) if upos[c - 1] == "PUNCT" and forms[c - 1] in marks
        ]
    if name == "clause":
        onsets = sorted(_clause_onsets(sentence, config))
        return lambda a, b: onsets[bisect_left(onsets, a) : bisect_left(onsets, b)]
    if name in ("priority_preposition", "other_preposition"):
        priority, words = name == "priority_preposition", config.priority_prepositions
        return lambda a, b: [  # the cut lands before the preposition, token c + 1
            c for c in range(a, b) if upos[c] == "ADP" and (forms[c].lower() in words) == priority
        ]
    if name == "word":
        return lambda a, b: list(range(a, b))
    if name != "chunk":
        raise ValueError(f"unknown cut level {name!r}")
    # Two neighbours stay glued when one governs the other through a glue
    # relation, or when they share a head and both bear glue relations.
    heads, deprels, glue = sentence.heads, sentence.deprels, config.glue_deprels
    return lambda a, b: [  # left token i, right token i + 1
        i
        for i in range(a, b)
        if not (
            (heads[i] == i and deprels[i] in glue)
            or (heads[i - 1] == i + 1 and deprels[i - 1] in glue)
            or (heads[i - 1] == heads[i] and deprels[i - 1] in glue and deprels[i] in glue)
        )
    ]


def cascade_segment(sentence: Sentence, config: CascadeConfig) -> Segmentation:
    """Segment a sentence by applying the cut levels one at a time.

    The pieces that do not fit the span are pending.  Each level splits each
    pending piece at its positions inside it; the parts that fit are done,
    and the rest, like a piece the level does not cut, continue at the next
    level, in the order a recursion would take.  So each level reads each
    pending token at most once, and the clause onsets are built once per
    sentence.  A piece no level can split is kept as-is, and ``_finish``,
    which every segmenter ends in, warns for it with an OversizedTokenWarning.
    """
    index = _Structure(sentence, config.span)
    hi, lo, cap = index.hi, index.lo, index.max_units
    n = len(sentence)
    ends: list[int] = []
    pending = [(1, n)] if hi[n] - lo[1] > cap else []  # a sentence that fits has no cuts
    for level in CUT_LEVELS:
        if not pending:
            break
        cuts_in = _piece_cuts(sentence, level, config)
        rest = []
        for a, b in pending:
            for end in (*cuts_in(a, b), b):  # uncut, the piece stays pending
                if hi[end] - lo[a] <= cap:
                    ends.append(end)
                else:
                    rest.append((a, end))
                a = end + 1
        pending = rest
    ends.extend(b for _, b in pending)  # no level cuts them: they do not fit
    ends.sort()
    return _finish(sentence, index, ends[:-1])


def regroup(sentence: Sentence, seg: Segmentation, config: CascadeConfig) -> Segmentation:
    """Greedily merge adjacent rhesis whose joint surface still fits.

    Scans left to right, repeatedly absorbing the next rhesis into the
    current one while the merged text fits the span; never merges across a
    sentence-final punctuation mark (., !, ?).  Each merge is decided by the
    sentence index: ``hi[end] - lo[start]`` is ``text_measure`` of the merged text.
    A segmentation tiles its own sentence, so ``seg`` need only be of
    ``sentence``: ValueError unless its sentence is ``sentence`` or equals it.
    """
    if seg._sentence is not sentence and seg._sentence != sentence:
        raise ValueError(f"segmentation of {seg.sentence_id!r} given for {sentence.sent_id!r}")
    index = _Structure(sentence, config.span)
    hi, lo, cap = index.hi, index.lo, index.max_units
    cuts = seg.cuts()
    kept = []
    start = 1  # of the current rhesis; the cut at c would merge c + 1..end into it
    for c, end in zip(cuts, (*cuts[1:], len(sentence))):
        blocked = sentence.upos[c - 1] == "PUNCT" and sentence.forms[c - 1] in _FINAL_PUNCTUATION
        if blocked or hi[end] - lo[start] > cap:
            kept.append(c)
            start = c + 1
    return segmentation_from_cuts(sentence, kept)
