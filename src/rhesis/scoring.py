"""Scored segmentation: rate every admissible division, keep the best.

Each potential cut is scored from the dependency edges it severs (the type
of the shallowest crossed relation, its depth, how many other edges cross,
and a flat per-cut penalty); segment lengths pull toward a target via a
balance penalty.  The objective decomposes per cut and per segment, so exact
dynamic programming finds the optimum; see ``_dp`` for why the arithmetic is
done on an integer grid.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations
from pathlib import Path

from ._dp import SCALE, best_cuts, scaled
from .corpus import Segmentation, Sentence, segmentation_from_cuts, token_depth
from .errors import FormatError, OversizedTokenWarning
from .span import SpanConfig, fits_span, text_measure

__all__ = [
    "ScoringWeights",
    "CutCandidate",
    "crossing_edges",
    "cut_score",
    "segment_best",
    "segmentation_score",
    "enumerate_all",
    "weights_to_json",
    "weights_from_json",
    "read_weights",
    "write_weights",
]


@dataclass(frozen=True, slots=True)
class ScoringWeights:
    """Linear weights for the cut objective.

    Scalars are nonnegative; deprel weights live in [-1, 1] and say how
    cuttable a relation is (high: a good place to cut).  Labels absent from
    the table fall back to ``default_deprel_weight``.
    """

    w_dep: float = 1.0
    w_count: float = 0.0
    w_balance: float = 0.0
    w_depth: float = 0.0
    w_cross: float = 0.0
    deprel_weights: dict[str, float] = field(default_factory=dict)
    default_deprel_weight: float = 0.0

    def __post_init__(self) -> None:
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for label, value in self.deprel_weights.items():
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"deprel weight for {label!r} must be in [-1, 1], got {value}")
        if not -1.0 <= self.default_deprel_weight <= 1.0:
            raise ValueError("default_deprel_weight must be in [-1, 1]")
        object.__setattr__(self, "deprel_weights", dict(self.deprel_weights))

    def lookup(self, deprel: str) -> float:
        return self.deprel_weights.get(deprel, self.default_deprel_weight)


# The nonnegative scalar weights, in declaration order (the tuner's gene order).
_SCALAR_FIELDS = tuple(f.name for f in fields(ScoringWeights) if f.name.startswith("w_"))


@dataclass(frozen=True, slots=True)
class CutCandidate:
    """A boundary position with the dependency edges that cross it.

    ``crossing`` holds (head, dependent, deprel) triples; ``primary_edge``
    is the crossing edge whose dependent sits shallowest in the tree (ties
    broken toward the leftmost head, then leftmost dependent), and ``depth``
    is that dependent's depth.
    """

    position: int
    crossing: tuple[tuple[int, int, str], ...]
    primary_edge: tuple[int, int, str]
    depth: int


def crossing_edges(sentence: Sentence, position: int) -> CutCandidate:
    """All dependency edges spanning the boundary at ``position``."""
    n = len(sentence.tokens)
    if not 1 <= position < n:
        raise ValueError(f"position {position} not an internal boundary of {n} tokens")
    edges = []
    for tok in sentence.tokens:
        if tok.head == 0:
            continue
        lo, hi = min(tok.head, tok.index), max(tok.head, tok.index)
        if lo <= position < hi:
            edges.append((tok.head, tok.index, tok.deprel))
    edges.sort()
    depths = {dep: token_depth(sentence, dep) for _, dep, _ in edges}
    primary = min(edges, key=lambda e: (depths[e[1]], e[0], e[1]))
    return CutCandidate(
        position=position,
        crossing=tuple(edges),
        primary_edge=primary,
        depth=depths[primary[1]],
    )


def cut_score(cand: CutCandidate, w: ScoringWeights) -> float:
    """Linear score of one cut; higher is better."""
    return (
        w.w_dep * w.lookup(cand.primary_edge[2])
        - w.w_depth * cand.depth
        - w.w_cross * (len(cand.crossing) - 1)
        - w.w_count
    )


class _Structure:
    """Per-sentence precomputation shared by the DP and the tuner.

    ``measure(a, b) == text_measure(sentence.span_text(a, b), span)`` without
    building the slice.  Characters come from the offsets of each token in
    the surface text; words from a count of word starts over that text, so
    a form that holds spaces counts as all of its words.  Every boundary's
    CutCandidate is computed once.
    """

    __slots__ = ("n", "max_units", "target", "words_mode", "candidates", "_start", "_end",
                 "_wstart", "_wend")

    def __init__(self, sentence: Sentence, span: SpanConfig):
        tokens = sentence.tokens
        self.n = len(tokens)
        self.max_units = span.max_chars
        self.target = span.target_chars
        self.words_mode = span.count_mode == "words"
        # token a covers offsets _start[a] .. _end[a] - 1 of the surface text
        start, end = [0], [0]
        offset = 0
        for tok in tokens:
            start.append(offset)
            offset += len(tok.form)
            end.append(offset)
            offset += 1 if tok.space_after else 0
        self._start = start
        self._end = end
        if self.words_mode:
            self._count_words(sentence.span_text(1, self.n))
        self.candidates = tuple(crossing_edges(sentence, i) for i in range(1, self.n))

    def _count_words(self, text: str) -> None:
        begun = [0]  # begun[p]: words of ``text`` that begin before offset p
        prev_space = True
        for ch in text:
            space = ch.isspace()
            begun.append(begun[-1] + (prev_space and not space))
            prev_space = space
        self._wend = [begun[e] for e in self._end]
        # a span that starts inside a word counts that word as its first
        self._wstart = [
            begun[s] - (0 < s < len(text) and not text[s - 1].isspace() and not text[s].isspace())
            for s in self._start
        ]

    def measure(self, a: int, b: int) -> int:
        # an empty surface (only empty forms) holds no words and no characters
        if self.words_mode and self._end[b] > self._start[a]:
            return self._wend[b] - self._wstart[a]
        return self._end[b] - self._start[a]

    def admissible(self, a: int, b: int) -> bool:
        return a == b or self.measure(a, b) <= self.max_units


def _optimal_cuts(struct: _Structure, w: ScoringWeights) -> tuple[int, ...]:
    cut_terms = [scaled(cut_score(cand, w)) for cand in struct.candidates]
    balance = w.w_balance
    target = struct.target
    measure = struct.measure

    def segment_term(a: int, b: int) -> int:
        return scaled(-balance * abs(measure(a, b) - target))

    return best_cuts(struct.n, segment_term, lambda i: cut_terms[i - 1], struct.admissible)


def _warn_oversized(sentence: Sentence, seg: Segmentation, span: SpanConfig) -> None:
    for r in seg.rhesis:
        if not fits_span(r.text, span):
            warnings.warn(
                f"sentence {sentence.sent_id!r}: {r.text!r} exceeds the span",
                OversizedTokenWarning,
                stacklevel=3,
            )


def segment_best(sentence: Sentence, w: ScoringWeights, span: SpanConfig) -> Segmentation:
    """The segmentation maximizing the cut objective under the span.

    Ties go to fewer rhesis, then the lexicographically earliest cut set.
    A token too long to ever fit forms its own rhesis (with a warning) and
    optimization proceeds around it.
    """
    struct = _Structure(sentence, span)
    seg = segmentation_from_cuts(sentence, _optimal_cuts(struct, w))
    _warn_oversized(sentence, seg, span)
    return seg


def segmentation_score(
    sentence: Sentence, seg: Segmentation, w: ScoringWeights, span: SpanConfig
) -> float:
    """Total objective value of ``seg``: cut scores minus balance penalties.

    Computed on the same integer grid as segment_best, so comparing two
    segmentations through this function reproduces the optimizer's ordering
    exactly.
    """
    total = 0
    for position in seg.cuts():
        total += scaled(cut_score(crossing_edges(sentence, position), w))
    for r in seg.rhesis:
        total += scaled(-w.w_balance * abs(text_measure(r.text, span) - span.target_chars))
    return total / SCALE


def enumerate_all(sentence: Sentence, span: SpanConfig, cap: int = 16) -> list[Segmentation]:
    """Every admissible segmentation, by rhesis count then cut order.

    Brute-force oracle for the optimizers; refuses sentences longer than
    ``cap`` tokens.  Admissibility matches segment_best: a rhesis fits the
    span or is a single (oversized) token.
    """
    n = len(sentence.tokens)
    if n > cap:
        raise ValueError(f"sentence {sentence.sent_id!r} has {n} tokens, oracle cap is {cap}")
    struct = _Structure(sentence, span)
    out = []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            if all(struct.admissible(a + 1, b) for a, b in zip(bounds, bounds[1:])):
                out.append(segmentation_from_cuts(sentence, cuts))
    return out


def weights_to_json(w: ScoringWeights) -> str:
    return json.dumps(asdict(w), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def weights_from_json(text: str) -> ScoringWeights:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"weight file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("weight file must hold a JSON object")
    unknown = set(payload) - {f.name for f in fields(ScoringWeights)}
    if unknown:
        raise FormatError(f"unknown weight fields: {sorted(unknown)}")
    try:
        return ScoringWeights(**payload)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad weight file: {exc}") from None


def read_weights(path: str | Path) -> ScoringWeights:
    return weights_from_json(Path(path).read_text(encoding="utf-8"))


def write_weights(path: str | Path, w: ScoringWeights) -> None:
    Path(path).write_text(weights_to_json(w), encoding="utf-8")
