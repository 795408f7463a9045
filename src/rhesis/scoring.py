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
import warnings
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from numbers import Real
from pathlib import Path

from ._dp import SCALE, best_measured_cuts, scaled
from .corpus import Segmentation, Sentence, _decoded, segmentation_from_cuts, token_depth
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


# The closed ranges of a scalar weight and of a deprel weight, for the checks
# below and the tuner's clamps.  The ceiling keeps a cut term, at most
# 1e12 * (2n + 2), far from where ``round(term * SCALE)`` overflows (about 1.6e296).
_SCALAR_RANGE = (0.0, 1e12)
_DEPREL_RANGE = (-1.0, 1.0)


@dataclass(frozen=True, slots=True)
class ScoringWeights:
    """Linear weights for the cut objective.

    Scalars lie in [0, 1e12]; deprel weights live in [-1, 1] and say how
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
            _weight(name, getattr(self, name), *_SCALAR_RANGE)
        if not isinstance(self.deprel_weights, Mapping):
            raise TypeError(f"deprel_weights must be a mapping, got {self.deprel_weights!r}")
        for label, value in self.deprel_weights.items():
            _weight(f"deprel weight for {label!r}", value, *_DEPREL_RANGE)
        _weight("default_deprel_weight", self.default_deprel_weight, *_DEPREL_RANGE)
        object.__setattr__(self, "deprel_weights", dict(self.deprel_weights))

    def lookup(self, deprel: str) -> float:
        return self.deprel_weights.get(deprel, self.default_deprel_weight)


def _weight(name: str, value, lo: float, hi: float) -> None:
    """Refuse ``value`` unless it is a number in ``[lo, hi]``: a JSON ``true``
    or ``false`` is not a weight, and a NaN fails the comparison."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo:g}, {hi:g}], got {value}")


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
    n = len(sentence)
    if not 1 <= position < n:
        raise ValueError(f"position {position} not an internal boundary of {n} tokens")
    edges = []
    for index, (head, deprel) in enumerate(zip(sentence.heads, sentence.deprels), 1):
        if head == 0:
            continue
        lo, hi = min(head, index), max(head, index)
        if lo <= position < hi:
            edges.append((head, index, deprel))
    edges.sort()
    depths = {dep: token_depth(sentence, dep) for _, dep, _ in edges}
    primary = min(edges, key=lambda e: (depths[e[1]], e[0], e[1]))
    return CutCandidate(
        position=position,
        crossing=tuple(edges),
        primary_edge=primary,
        depth=depths[primary[1]],
    )


def _cut_values(
    w: ScoringWeights, deprels: Iterable[str], depths: Iterable[int], crossings: Iterable[int]
) -> list[float]:
    """The score of each cut from its primary edge's deprel and depth and its crossing count.

    The one cut formula: ``cut_score`` and the tree DP's ``_cut_terms`` both
    read it.  The deprel table's ``get`` and its default are bound once, so
    a cut costs one dict lookup.
    """
    w_dep, w_depth, w_cross, w_count = w.w_dep, w.w_depth, w.w_cross, w.w_count
    get, default = w.deprel_weights.get, w.default_deprel_weight
    return [
        w_dep * get(label, default) - w_depth * depth - w_cross * (count - 1) - w_count
        for label, depth, count in zip(deprels, depths, crossings)
    ]


def cut_score(cand: CutCandidate, w: ScoringWeights) -> float:
    """Linear score of one cut; higher is better."""
    return _cut_values(w, [cand.primary_edge[2]], [cand.depth], [len(cand.crossing)])[0]


class _Structure:
    """The per-sentence index read by every segmenter, ``regroup``, the export and the tuner.

    ``measure(a, b) == text_measure(sentence.span_text(a, b), span)`` without
    building the slice: it is ``hi[b] - lo[a]``.  In characters mode ``lo``
    and ``hi`` are the token offsets the sentence laid out when it was built.
    In words mode they count words from the forms: ``hi[b]`` sums the words
    of forms ``1..b``, one fewer for each form that continues the previous
    token's last word (no whitespace at the joint), and ``lo[a]`` is
    ``hi[a - 1]``, one fewer when form ``a`` continues a word, which a span
    starting there counts as its first.  No form is blank, so no span is
    empty.  Both never decrease, so ``measure(a, b)`` never shrinks as ``a``
    decreases or ``b`` grows, and the count mode matters only here in
    ``__init__``.

    Every fact the index holds has at least two readers.  The cascade,
    ``regroup`` and ``_finish``, through which every segmenter reports an
    oversized unit, read ``hi``, ``lo`` and ``max_units``.  The rest is
    built on first use, so a consumer pays only for what it reads.  The
    span fact: ``fit_end`` (the last end that fits from each start), one
    bisection of ``hi`` per start; the batched tuner and the export read the
    measure of each admissible segment straight off ``hi``, ``lo`` and
    ``fit_end``.  Both DPs read ``hi`` and ``lo`` alone: from each start the
    tree DP walks the ends until the first that does not fit, and the
    scores DP lowers its last end until it fits.
    The tree fact: ``cut_features``, the three sequences behind
    ``crossing_edges(sentence, p)`` that a cut score reads (the primary
    edge's deprel, its depth and the crossing count, at index ``p - 1``),
    read by the tree DP and the tuner.  Of the two sides of ``p``, let S be
    the one without the root.  The primary edge's dependent is the token of
    S first in (depth, head, index) order: a crossing edge whose dependent
    is on the root's side has its head in S, so that dependent is deeper
    than S's shallowest token; and S's shallowest token has its head outside
    S, or that head would be shallower, so its edge crosses ``p``.  So one
    pass over the traversal the sentence kept of its cycle check gives each
    token's depth and head and marks where each edge starts and stops
    crossing; a prefix minimum left of the root and a suffix minimum right
    of it give the primary edges, and a running sum the crossing counts, in
    O(n).  None of these depends on the weights, so the tuner builds them
    once per sentence.
    """

    def __init__(self, sentence: Sentence, span: SpanConfig):
        self._deprels = sentence.deprels
        self._tree = sentence._tree
        self.n = len(sentence)
        self.max_units = span.max_chars
        self.target = span.target_chars
        if span.count_mode == "words":
            text, self.lo, self.hi = sentence.text, [0], [0]
            for s, form in zip(sentence.starts, sentence.forms):
                joined = s > 0 and not text[s - 1].isspace() and not text[s].isspace()
                self.lo.append(self.hi[-1] - joined)
                self.hi.append(self.hi[-1] + len(form.split()) - joined)
        else:  # 1-based: token a covers sentence.text[lo[a]:hi[a]]
            self.lo, self.hi = (0, *sentence.starts), (0, *sentence.ends)

    def measure(self, a: int, b: int) -> int:
        return self.hi[b] - self.lo[a]

    @cached_property
    def fit_end(self) -> list[int]:
        """``fit_end[s]``: the last ``e`` with ``measure(s, e) <= max_units``, ``s - 1`` if none.

        An oversized single token does not fit; the tuner still lists it alone.
        """
        hi, lo, cap = self.hi, self.lo, self.max_units
        return [0, *(bisect_right(hi, lo[s] + cap, s) - 1 for s in range(1, self.n + 1))]

    @cached_property
    def cut_features(self) -> tuple[list[str], list[int], list[int]]:
        """Per boundary ``p`` at index ``p - 1``: the primary deprel, its depth, the crossing count."""
        n, deprels, (children, order) = self.n, self._deprels, self._tree
        m = n + 1
        key = [0] * m  # key[t] = depth(t)·m + head(t): depth first, then the head
        opened = [0] * m  # edges that start crossing at p, less those that stop
        for node in order:  # every edge once, from its head
            child_key = key[node] - key[node] % m + m + node
            for child in children[node]:
                key[child] = child_key
                if node < child:
                    opened[node] += 1
                    opened[child] -= 1
                else:
                    opened[child] += 1
                    opened[node] -= 1
        deprel, depth = [""] * (n - 1), [0] * (n - 1)
        root = children[0][0]
        best = m * m  # above every key
        for p in range(1, root):  # S = 1..p, walked rightward: a tie keeps the leftmost
            k = key[p]
            if k < best:
                best, label, d = k, deprels[p - 1], k // m
            deprel[p - 1], depth[p - 1] = label, d
        best = m * m
        for p in range(n - 1, root - 1, -1):  # S = p + 1..n, walked leftward: a tie moves left
            k = key[p + 1]
            if k <= best:
                best, label, d = k, deprels[p], k // m
            deprel[p - 1], depth[p - 1] = label, d
        return deprel, depth, list(accumulate(opened[1:n]))


def _cut_terms(struct: _Structure, w: ScoringWeights) -> list[int]:
    """``scaled(cut_score(crossing_edges(sentence, p), w))`` at index ``p - 1``."""
    return [round(value * SCALE) for value in _cut_values(w, *struct.cut_features)]


# One table per weight set and span, shared by every sentence: a bounded cache
# rather than a ScoringWeights field, which ``asdict`` would write into the
# weights JSON.  ``typed`` keeps an int weight's exact terms apart from those
# of an equal float.
@lru_cache(maxsize=128, typed=True)
def _balance_table(w_balance: float, target: int, top: int) -> tuple[int, ...]:
    """The balance term of a segment of measure ``m``, for every ``m`` in ``0..top``."""
    return tuple(scaled(-w_balance * abs(m - target)) for m in range(top + 1))


# Keyed on the int table itself: a fresh copy per call costs more than the
# float sums save on a sentence of 5-20 tokens.
@lru_cache(maxsize=128)
def _float_table(table: tuple[int, ...]) -> tuple[float, ...]:
    """``table`` as floats, for ``_optimal_cuts`` to pass below the exact-sum bound."""
    return tuple(map(float, table))


def _optimal_cuts(struct: _Structure, w: ScoringWeights) -> tuple[int, ...]:
    # the balance term depends on a segment only through its measure
    # ``hi[b] - lo[a]``: the DP reads it off ``hi`` and ``lo`` into one table
    # over ``0..top`` and walks the ends from each start until the first
    # measure past ``top``; no segment measures more than the sentence, so
    # ``top`` is the cap, or the sentence's measure when that is smaller, and
    # a huge span costs no more than the sentence; an oversized token stands
    # alone in every segmentation: its term is 0
    hi, lo, n = struct.hi, struct.lo, struct.n
    table = _balance_table(w.w_balance, struct.target, min(struct.max_units, hi[n] - lo[1]))
    # a cover sums at most n balance terms, the largest in size at an end of
    # the table, and n - 1 cut terms, each at most ``cut_bound`` in size: the
    # deprel weights lie in [-1, 1], and a depth and a crossing count are
    # below n; while n times both stays below 2^52, every sum the DP forms is
    # an integer a double holds exactly, and float sums are the cheaper
    cut_bound = (w.w_dep + (w.w_depth + w.w_cross) * n + w.w_count) * SCALE
    if n * (max(-table[0], -table[-1]) + cut_bound) < 2**52:
        table = _float_table(table)
    return best_measured_cuts(hi, lo, table, _cut_terms(struct, w))


def _finish(sentence: Sentence, struct: _Structure, cuts: tuple[int, ...]) -> Segmentation:
    """The segmentation ``cuts`` make, warning for each rhesis that exceeds the span.

    Every segmenter ends here, the cascade and both DPs, so each reports
    its oversized units with the same text, in order, naming its caller.
    """
    seg = segmentation_from_cuts(sentence, cuts)
    hi, lo, cap = struct.hi, struct.lo, struct.max_units
    for a, b in seg.spans():
        if hi[b] - lo[a] > cap:
            warnings.warn(
                f"sentence {seg.sentence_id!r}: {sentence.span_text(a, b)!r} "
                f"exceeds the span and cannot be split further",
                OversizedTokenWarning,
                stacklevel=3,
            )
    return seg


def segment_best(sentence: Sentence, w: ScoringWeights, span: SpanConfig) -> Segmentation:
    """The segmentation maximizing the cut objective under the span.

    Ties go to fewer rhesis, then the lexicographically earliest cut set.
    A token too long to ever fit forms its own rhesis (with a warning) and
    optimization proceeds around it.
    """
    struct = _Structure(sentence, span)
    return _finish(sentence, struct, _optimal_cuts(struct, w))


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
    span or is a single (oversized) token.  The fit is read from each span's
    text, not from the index the optimizers share.
    """
    n = len(sentence)
    if n > cap:
        raise ValueError(f"sentence {sentence.sent_id!r} has {n} tokens, oracle cap is {cap}")
    admissible = {
        (a, b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        if a == b or fits_span(sentence.span_text(a, b), span)
    }
    out = []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            if all((a + 1, b) in admissible for a, b in zip(bounds, bounds[1:])):
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
    return weights_from_json(_decoded(Path(path).read_bytes(), FormatError))


def write_weights(path: str | Path, w: ScoringWeights) -> None:
    Path(path).write_text(weights_to_json(w), encoding="utf-8")
