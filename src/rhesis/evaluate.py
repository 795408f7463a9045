"""Segmentation quality metrics and corpus-level reporting.

The headline metric counts common rhesis: a produced rhesis scores iff the
gold segmentation contains the identical token span.  Boundary metrics and
recall/F1 are finer-grained diagnostics on top.  Both, and the tuner's
fitness, count with one rule, ``_matches`` (a produced span or cut matches
iff the same sentence's gold holds it), and divide with ``_rates``.  Reports
aggregate per document (``document_report``), weighted by gold rhesis counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import AlignedCorpus, Segmentation

__all__ = [
    "PerDocRow",
    "EvalReport",
    "LengthStats",
    "rhesis_precision",
    "boundary_prf",
    "corpus_report",
    "document_report",
    "format_report",
    "length_stats",
    "format_length_stats",
]


@dataclass(frozen=True, slots=True)
class PerDocRow:
    label: str
    rhesis_count: int
    precision: float
    recall: float = 0.0
    f1: float = 0.0
    boundary_precision: float = 0.0
    boundary_recall: float = 0.0
    boundary_f1: float = 0.0


@dataclass(frozen=True, slots=True)
class EvalReport:
    per_doc: tuple[PerDocRow, ...]
    weighted_precision: float


def _same_count(auto, gold) -> None:
    if len(auto) != len(gold):
        raise ValueError(f"sentence count mismatch: {len(auto)} auto vs {len(gold)} gold")


def _paired(auto: list[Segmentation], gold: list[Segmentation]):
    _same_count(auto, gold)
    for a, g in zip(auto, gold):
        if a.sentence_id != g.sentence_id:
            raise ValueError(
                f"sentence id mismatch: {a.sentence_id!r} vs {g.sentence_id!r}"
            )
        if a.token_count != g.token_count:
            raise ValueError(
                f"token count mismatch in {a.sentence_id!r}: "
                f"{a.token_count} vs {g.token_count}"
            )
        yield a, g


def _matches(pairs) -> tuple[int, int, int]:
    """``(matched, auto_total, gold_total)`` summed over ``(auto set, gold set)`` pairs."""
    matched = auto_total = gold_total = 0
    for auto_units, gold_units in pairs:
        matched += len(auto_units & gold_units)
        auto_total += len(auto_units)
        gold_total += len(gold_units)
    return matched, auto_total, gold_total


def _rates(matched, auto_total, gold_total, empty: float) -> tuple[float, float, float]:
    """Precision, recall and F1 of the counts; a ratio over zero units reads ``empty``."""
    precision = matched / auto_total if auto_total else empty
    recall = matched / gold_total if gold_total else empty
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def rhesis_precision(
    auto: list[Segmentation], gold: list[Segmentation]
) -> tuple[float, float, float]:
    """Common-rhesis precision, recall, and F1 over paired sentences.

    A rhesis matches iff the same sentence's gold segmentation contains the
    identical (start, end) span.
    """
    pairs = ((set(a.spans()), set(g.spans())) for a, g in _paired(auto, gold))
    return _rates(*_matches(pairs), 0.0)


def boundary_prf(
    auto: list[Segmentation], gold: list[Segmentation]
) -> tuple[float, float, float]:
    """Precision/recall/F1 over internal boundary positions.

    A ratio over zero cuts reads 1.0 vacuously, so when neither side places
    any internal boundary (all sentences kept whole) the result is (1, 1, 1).
    """
    pairs = ((set(a.cuts()), set(g.cuts())) for a, g in _paired(auto, gold))
    return _rates(*_matches(pairs), 1.0)


def _weighted_mean(rows, attr: str) -> float:
    """One column's mean over the rows, weighted by their gold rhesis counts."""
    total = sum(row.rhesis_count for row in rows)
    return sum(row.rhesis_count * getattr(row, attr) for row in rows) / total


def corpus_report(rows) -> EvalReport:
    """Aggregate per-document rows into a weighted report.

    Rows are PerDocRow instances or tuples with at least (label,
    rhesis_count, precision); gold rhesis counts are the weights.  The
    aggregation is unit-agnostic: rows may carry rates or percentages.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    normalized = [row if isinstance(row, PerDocRow) else PerDocRow(*row) for row in rows]
    for row in normalized:
        if row.rhesis_count <= 0:
            raise ValueError(f"row {row.label!r}: rhesis count must be positive")
    return EvalReport(tuple(normalized), _weighted_mean(normalized, "precision"))


def document_report(auto: list[Segmentation], gold: AlignedCorpus) -> EvalReport:
    """``corpus_report`` of one row per ``#doc`` label of ``gold``, in first-seen order.

    Every sentence under a label joins its row, adjacent or not; an empty
    label reads ``-``.  A row's weight is its gold rhesis count.
    """
    _same_count(auto, gold)
    groups: dict[str, tuple[list, list]] = {}
    for seg, entry in zip(auto, gold):
        auto_segs, gold_segs = groups.setdefault(entry.doc_label, ([], []))
        auto_segs.append(seg)
        gold_segs.append(entry.gold)
    rows = []
    for label, (a, g) in groups.items():
        count = sum(len(seg.spans()) for seg in g)
        rows.append(PerDocRow(label or "-", count, *rhesis_precision(a, g), *boundary_prf(a, g)))
    return corpus_report(rows)


_REPORT_COLUMNS = (
    ("rhesis", "rhesis_count"),
    ("prec", "precision"),
    ("rec", "recall"),
    ("f1", "f1"),
    ("b-prec", "boundary_precision"),
    ("b-rec", "boundary_recall"),
    ("b-f1", "boundary_f1"),
)


def format_report(report: EvalReport) -> str:
    """Aligned text table: one row per document plus the weighted average."""

    def fmt(value) -> str:
        return str(value) if isinstance(value, int) else f"{value:.4g}"

    rows = [["doc"] + [name for name, _ in _REPORT_COLUMNS]]
    for row in report.per_doc:
        rows.append([row.label or "-"] + [fmt(getattr(row, attr)) for _, attr in _REPORT_COLUMNS])
    total = sum(row.rhesis_count for row in report.per_doc)
    rows.append(["weighted avg", str(total)] + [
        fmt(_weighted_mean(report.per_doc, attr)) for _, attr in _REPORT_COLUMNS[1:]
    ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class LengthStats:
    count: int
    mean_chars: float
    std_chars: float
    mean_words: float
    std_words: float
    histogram: dict[int, int]


def length_stats(segs: list[Segmentation]) -> LengthStats:
    """Population statistics over rhesis surface lengths.

    The histogram buckets character lengths with width 5 (a bucket key of 10
    covers lengths 10-14).  Means and standard deviations come from the exact
    integer sums ``n``, ``Σx`` and ``Σx²``.
    """
    texts = [text for seg in segs for _, _, text in seg._units()]
    if not texts:
        raise ValueError("no rhesis to measure")
    chars = [len(t) for t in texts]
    words = [len(t.split()) for t in texts]
    buckets = Counter((c // 5) * 5 for c in chars)
    mean_chars, std_chars = _moments(chars)
    mean_words, std_words = _moments(words)
    return LengthStats(
        count=len(texts),
        mean_chars=mean_chars,
        std_chars=std_chars,
        mean_words=mean_words,
        std_words=std_words,
        histogram=dict(sorted(buckets.items())),
    )


def _moments(values: list[int]) -> tuple[float, float]:
    """Mean and population standard deviation of integers."""
    n, s, q = len(values), sum(values), sum(x * x for x in values)
    return s / n, math.sqrt(n * q - s * s) / n


def format_length_stats(stats: LengthStats) -> str:
    lines = [
        f"rhesis count      {stats.count}",
        f"chars mean / std  {stats.mean_chars:.2f} / {stats.std_chars:.2f}",
        f"words mean / std  {stats.mean_words:.2f} / {stats.std_words:.2f}",
        "length histogram (5-char buckets)",
    ]
    peak = max(stats.histogram.values())
    for bucket, count in stats.histogram.items():
        bar = "#" * max(1, round(count * 40 / peak))
        lines.append(f"  {bucket:>3}-{bucket + 4:<3} {count:>5}  {bar}")
    return "\n".join(lines) + "\n"
