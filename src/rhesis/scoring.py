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
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from pathlib import Path

from ._dp import SCALE, best_cuts, scaled
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
            value = _not_bool(name, getattr(self, name))
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not isinstance(self.deprel_weights, Mapping):
            raise TypeError(f"deprel_weights must be a mapping, got {self.deprel_weights!r}")
        for label, value in self.deprel_weights.items():
            if not -1.0 <= _not_bool(f"deprel weight for {label!r}", value) <= 1.0:
                raise ValueError(f"deprel weight for {label!r} must be in [-1, 1], got {value}")
        if not -1.0 <= _not_bool("default_deprel_weight", self.default_deprel_weight) <= 1.0:
            raise ValueError("default_deprel_weight must be in [-1, 1]")
        object.__setattr__(self, "deprel_weights", dict(self.deprel_weights))

    def lookup(self, deprel: str) -> float:
        return self.deprel_weights.get(deprel, self.default_deprel_weight)


def _not_bool(name: str, value):
    """``value``, unless it is a bool: a JSON ``true`` or ``false`` is not a weight."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value}")
    return value


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
    bisection of ``hi`` per start; both DPs, the batched tuner and the
    export read the measure of each admissible segment straight off ``hi``,
    ``lo`` and ``fit_end``.  The tree fact: ``cut_features``, the three
    sequences behind ``crossing_edges(sentence, p)`` that a cut score reads
    (the primary edge's deprel, its depth and the crossing count, at index
    ``p - 1``), read by the tree DP and the tuner.  It takes each token's
    depth from one pass over the traversal the sentence kept of its cycle
    check, then sweeps the edges once, in O(n + total arc length).  None of
    these depends on the weights, so the tuner builds them once per
    sentence.
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

        An oversized single token does not fit; the DP rows still list it alone.
        """
        hi, lo, cap = self.hi, self.lo, self.max_units
        return [0, *(bisect_right(hi, lo[s] + cap, s) - 1 for s in range(1, self.n + 1))]

    @cached_property
    def cut_features(self) -> tuple[list[str], list[int], list[int]]:
        """Per boundary ``p`` at index ``p - 1``: the primary deprel, its depth, the crossing count."""
        n, deprels, (children, order) = self.n, self._deprels, self._tree
        depth = [0] * (n + 1)
        for node in order:
            for child in children[node]:
                depth[child] = depth[node] + 1
        deprel = [""] * n
        shallowest = [n] * n
        opened = [0] * (n + 1)  # edges that start crossing at p, less those that stop
        # edges in (head, dependent) order: the first shallowest edge is the primary one
        for head, dependents in enumerate(children[1:], 1):
            for dep in dependents:
                lo, hi = (head, dep) if head < dep else (dep, head)
                opened[lo] += 1
                opened[hi] -= 1
                d, label = depth[dep], deprels[dep - 1]
                for p in range(lo, hi):
                    if d < shallowest[p]:
                        shallowest[p] = d
                        deprel[p] = label
        return deprel[1:], shallowest[1:], list(accumulate(opened[1:n]))


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


def _optimal_cuts(struct: _Structure, w: ScoringWeights) -> tuple[int, ...]:
    # the balance term depends on a segment only through its measure
    # ``hi[b] - lo[a]``: each row reads the ends ``a..fit_end[a]`` straight
    # off ``hi`` into one table over ``0..top``, and ``top`` never exceeds the
    # sentence's own measure, so a huge span costs no more than the sentence;
    # an oversized token stands alone in every segmentation: its term is 0
    hi, lo, target = struct.hi, struct.lo, struct.target
    table = _balance_table(w.w_balance, target, min(struct.max_units, hi[struct.n] - lo[1]))
    rows = []
    for a, e in enumerate(struct.fit_end[1:], 1):
        if e < a:
            rows.append([0])
        else:
            base = lo[a]
            rows.append([table[h - base] for h in hi[a : e + 1]])
    return best_cuts(rows, _cut_terms(struct, w))


def _finish(sentence: Sentence, struct: _Structure, cuts: tuple[int, ...]) -> Segmentation:
    """The segmentation ``cuts`` make, warning for each rhesis that exceeds the span.

    Every segmenter ends here, the cascade and both DPs, so each reports
    its oversized units with the same text, in order, naming its caller.
    """
    seg = segmentation_from_cuts(sentence, cuts)
    hi, lo, cap = struct.hi, struct.lo, struct.max_units
    for r in seg.rhesis:
        if hi[r.end] - lo[r.start] > cap:
            warnings.warn(
                f"sentence {seg.sentence_id!r}: {r.text!r} "
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
