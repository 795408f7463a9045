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
from functools import cached_property
from itertools import combinations
from pathlib import Path

from ._dp import SCALE, best_cuts, scaled
from .corpus import Segmentation, Sentence, _top_down, segmentation_from_cuts, token_depth
from .errors import FormatError, OversizedTokenWarning
from .span import SpanConfig, text_measure

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
    """The per-sentence index read by every segmenter, the export and the tuner.

    ``measure(a, b) == text_measure(sentence.span_text(a, b), span)`` without
    building the slice.  Characters come from the token offsets that
    ``Sentence.from_tokens`` lays out; words from a count of word starts over
    the surface text, so a form that holds spaces counts as all of its words.
    ``measure(a, b)`` never shrinks as ``a`` decreases or ``b`` grows.

    Everything else is built on first use, so a consumer pays only for what
    it reads.  The span facts: ``fit_end`` (the last end that fits from
    each start) from one two-pointer pass, and ``measure_rows``, the measure
    of every admissible segment laid out the way ``_dp.best_cuts`` reads
    its rows.  The tree facts: ``depth[i] == token_depth(sentence, i)`` and
    ``extents[i] == subtree_span(sentence, i)`` from one pass each, and
    ``candidates[p - 1] == crossing_edges(sentence, p)`` for every boundary
    from one sweep over the edges, in O(n + total arc length).  None of
    these depends on the weights, so the tuner builds them once per sentence.
    """

    def __init__(self, sentence: Sentence, span: SpanConfig):
        self._tokens = sentence.tokens
        self.n = len(sentence.tokens)
        self.max_units = span.max_chars
        self.target = span.target_chars
        self.words_mode = span.count_mode == "words"
        # 1-based: token a covers sentence.text[_start[a]:_end[a]]
        self._start = (0, *sentence.starts)
        self._end = (0, *sentence.ends)
        if self.words_mode:
            self._count_words(sentence.text)

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

    @cached_property
    def fit_end(self) -> list[int]:
        """``fit_end[s]``: the last ``e`` with ``measure(s, e) <= max_units``, ``s - 1`` if none.

        Unlike ``admissible``, an oversized single token does not fit.  The
        measure never shrinks as a span widens, so ``fit_end`` never
        decreases and one pass finds it.
        """
        fit_end = [0] * (self.n + 1)
        e = 0
        for s in range(1, self.n + 1):
            e = max(e, s - 1)
            while e < self.n and self.measure(s, e + 1) <= self.max_units:
                e += 1
            fit_end[s] = e
        return fit_end

    @cached_property
    def measure_rows(self) -> list[list[int]]:
        """``measure_rows[a - 1][k] == measure(a, a + k)`` for every admissible ``a..a + k``."""
        measure = self.measure
        return [
            [measure(a, b) for b in range(a, max(a, e) + 1)]
            for a, e in enumerate(self.fit_end[1:], 1)
        ]

    @cached_property
    def measure_values(self) -> frozenset[int]:
        """Every distinct value in ``measure_rows``."""
        return frozenset().union(*self.measure_rows)

    @cached_property
    def _tree(self) -> tuple[list[list[int]], list[int]]:
        return _top_down(self._tokens)

    @cached_property
    def depth(self) -> list[int]:
        children, order = self._tree
        depth = [0] * (self.n + 1)
        for node in order:
            for child in children[node]:
                depth[child] = depth[node] + 1
        return depth

    @cached_property
    def extents(self) -> list[tuple[int, int]]:
        lo = list(range(self.n + 1))
        hi = list(range(self.n + 1))
        for node in reversed(self._tree[1]):
            head = self._tokens[node - 1].head
            lo[head] = min(lo[head], lo[node])
            hi[head] = max(hi[head], hi[node])
        return list(zip(lo, hi))

    @cached_property
    def candidates(self) -> tuple[CutCandidate, ...]:
        children = self._tree[0]
        depth = self.depth
        crossing: list[list[tuple[int, int, str]]] = [[] for _ in range(self.n)]
        primary: list[tuple[int, int, str] | None] = [None] * self.n
        shallowest = [self.n] * self.n
        # edges in (head, dependent) order: every boundary's list comes out
        # sorted, and the first shallowest edge is the primary one
        for head in range(1, self.n + 1):
            for dep in children[head]:
                edge = (head, dep, self._tokens[dep - 1].deprel)
                d = depth[dep]
                for p in range(min(head, dep), max(head, dep)):
                    crossing[p].append(edge)
                    if d < shallowest[p]:
                        shallowest[p] = d
                        primary[p] = edge
        return tuple(
            CutCandidate(position=p, crossing=tuple(crossing[p]), primary_edge=primary[p],
                         depth=shallowest[p])
            for p in range(1, self.n)
        )


def _optimal_cuts(struct: _Structure, w: ScoringWeights) -> tuple[int, ...]:
    cut_terms = [scaled(cut_score(cand, w)) for cand in struct.candidates]
    # the balance term depends on the segment only through its measure
    balance = {
        m: scaled(-w.w_balance * abs(m - struct.target)) for m in struct.measure_values
    }
    rows = [[balance[m] for m in row] for row in struct.measure_rows]
    return best_cuts(rows, cut_terms)


def _warn_oversized(seg: Segmentation, struct: _Structure) -> None:
    for r in seg.rhesis:
        if struct.measure(r.start, r.end) > struct.max_units:
            warnings.warn(
                f"sentence {seg.sentence_id!r}: {r.text!r} exceeds the span",
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
    _warn_oversized(seg, struct)
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
