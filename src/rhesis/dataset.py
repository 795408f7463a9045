"""Bridge to an external rhesis classifier: candidate export and score intake.

Training data goes out as labeled (sentence, sub-section) pairs: one positive
per gold rhesis, plus "smart" negatives — sub-sections sharing exactly one
boundary with the gold rhesis they were derived from, so the classifier sees
near misses rather than arbitrary spans, each a ``CandidateExample`` named
tuple whose fields are the TSV columns, in order.  Predicted probabilities come
back as a score table, and a log-probability dynamic program composes them into
one segmentation per sentence.  The table groups its rows by sentence and
start, each row's probability as its scaled log, and the dynamic program reads
a sentence's own rows there, so a sentence costs its tokens and its own rows,
save a start whose best ``epsilon`` span has a row below ``epsilon``: that
start scans its admissible spans.  ``load_scores`` builds that view as it
reads: it cuts the text once, reads and checks each column whole, and fills
the view in one loop.  Only a text that fails a column check, or repeats a
key, is read again a line at a time, which names the first bad line or
counts the repeats.  A hand-built table checks its rows on first use and
fills the view through that loop.
"""

from __future__ import annotations

import math
import random
import warnings
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from operator import le, mul
from typing import NamedTuple

from ._dp import SCALE, best_sparse_cuts, scaled
from .corpus import AlignedCorpus, Segmentation, Sentence, _decoded
from .errors import FormatError
from .scoring import _finish, _Structure
from .span import SpanConfig, _count

__all__ = [
    "CandidateExample",
    "ScoreTable",
    "export_candidates",
    "candidates_to_tsv",
    "finetune_manifest",
    "load_scores",
    "unmatched_rows",
    "segment_by_scores",
]

# Settings recommended to the external fine-tuning run, recorded verbatim in
# the export manifest alongside the split convention.
MAX_SEQ_LENGTH = 48
BATCH_SIZE = 16
LEARNING_RATE = 2e-5
EPOCHS = 3
HOLDOUT_FRACTION = 0.33


class CandidateExample(NamedTuple):
    sentence_id: str
    sentence_text: str
    start: int
    end: int
    candidate_text: str
    label: int


# the named tuple's own __new__ is Python code; tuple.__new__ makes the same record in C
_new_example = partial(tuple.__new__, CandidateExample)


def _example(sentence: Sentence, start: int, end: int, label: int) -> CandidateExample:
    return _new_example(
        (sentence.sent_id, sentence.text, start, end, sentence.span_text(start, end), label)
    )


def _at_least_zero(name: str, value) -> None:
    """Refuse a count that is not an integer or is negative."""
    _count(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def export_candidates(
    corpus: AlignedCorpus,
    negatives_per_positive: int,
    seed: int,
    span: SpanConfig = SpanConfig(),
) -> list[CandidateExample]:
    """Labeled candidate spans for external classifier training.

    Emits one positive per gold rhesis and up to ``negatives_per_positive``
    negatives each: span-feasible sub-sections sharing exactly one boundary
    (the start or the end) with the source rhesis, topped up with random
    feasible sub-sections when the one-boundary pool runs dry.  No span is
    emitted twice and no negative equals any gold span.  The final list is
    shuffled; everything is driven by ``random.Random(seed)``.
    """
    if not corpus.entries:
        raise ValueError("empty corpus")
    for name, value in (("negatives_per_positive", negatives_per_positive), ("seed", seed)):
        _at_least_zero(name, value)
    rng = random.Random(seed)
    examples: list[CandidateExample] = []
    for entry in corpus:
        sentence = entry.sentence
        n = len(sentence)
        last = _Structure(sentence, span).fit_end  # never decreases
        feasible = None  # every span-feasible (s, e), sorted: built when a pool runs dry
        gold_spans = list(entry.gold.spans())
        used = set(gold_spans)
        examples += [_example(sentence, s, e, 1) for s, e in gold_spans]
        for gs, ge in gold_spans:
            # the unused feasible spans sharing one boundary with (gs, ge), in sorted
            # order: (s, ge) for s < gs, (gs, e) for e != ge, then (s, ge) for gs < s <= ge
            a, b = bisect_left(last, ge, 1, gs), bisect_left(last, ge, gs + 1, ge + 1)
            pool = [(s, ge) for s in range(a, gs) if (s, ge) not in used]
            pool += [(gs, e) for e in range(gs, last[gs] + 1) if e != ge and (gs, e) not in used]
            pool += [(s, ge) for s in range(b, ge + 1) if (s, ge) not in used]
            chosen = rng.sample(pool, min(negatives_per_positive, len(pool)))
            used.update(chosen)
            if len(chosen) < negatives_per_positive:
                if feasible is None:
                    feasible = [(s, e) for s in range(1, n + 1) for e in range(s, last[s] + 1)]
                fallback = [c for c in feasible if c not in used]
                extra = rng.sample(
                    fallback, min(negatives_per_positive - len(chosen), len(fallback))
                )
                used.update(extra)
                chosen += extra
            examples += [_example(sentence, s, e, 0) for s, e in chosen]
    rng.shuffle(examples)
    return examples


_TSV_HEADER = "\t".join(CandidateExample._fields)
_TSV_ROW = "\t".join(["%s"] * len(CandidateExample._fields)) + "\n"


def candidates_to_tsv(examples: list[CandidateExample]) -> str:
    """Serialize examples as UTF-8 TSV with a header line.

    Raises ValueError naming the first sentence id, sentence text or
    candidate that holds a tab or a line break: its row would not read back
    as six fields.
    """
    rows = len(examples)
    text = f"{_TSV_HEADER}\n" + (_TSV_ROW * rows) % tuple(chain.from_iterable(examples))
    if text.count("\t") != 5 * (rows + 1) or text.count("\n") != rows + 1 or "\r" in text:
        for ex in examples:  # only now walk the records, to name the first bad one
            sid, bad = ex.sentence_id, [any(c in "%s" % (f,) for c in "\t\n\r") for f in ex]
            if bad[0]:
                raise ValueError(f"sentence id {sid!r} holds a tab or a line break")
            if bad[1]:
                raise ValueError(f"sentence {sid!r}: its text holds a tab or a line break")
            if any(bad):
                raise ValueError(f"sentence {sid!r}: candidate ({ex.start!r}, {ex.end!r}) "
                                 "holds a tab or a line break")
    return text


def finetune_manifest(
    negatives_per_positive: int, seed: int, positives: int, negatives: int
) -> dict:
    """Manifest dict for an export: fine-tuning settings and split convention."""
    return {
        "max_seq_length": MAX_SEQ_LENGTH,
        "batch_size": BATCH_SIZE,
        "learning_rate": LEARNING_RATE,
        "epochs": EPOCHS,
        "holdout_fraction": HOLDOUT_FRACTION,
        "holdout_note": (
            "keep roughly one third of the sentences out of training "
            "for evaluation"
        ),
        "negatives_per_positive": negatives_per_positive,
        "seed": seed,
        "examples": {"positive": positives, "negative": negatives},
    }


@dataclass(frozen=True, slots=True)
class ScoreTable:
    """Probabilities for (sentence_id, start, end) spans, from a classifier.

    A table built by hand groups its rows by sentence id and start on its
    first segmentation or ``unmatched_rows`` and keeps that view; do not
    mutate ``probabilities`` after that.  Grouping raises ``ValueError`` for
    a key whose start or end is not an int, or whose probability is not a
    number, is NaN or is outside [0, 1].

    A table from ``load_scores`` holds that view from the start, and keeps
    the text it read in place of the ``probabilities`` dict.  The dict is
    read from that text when something first asks for it (``probabilities``,
    ``get``, ``==``, ``repr``, ``dataclasses.replace``), and kept.  ``len``
    reads the view, so segmenting never builds the dict.
    """

    probabilities: dict[tuple[str, int, int], float]
    _grouped: dict | None = field(default=None, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _loaded(cls, grouped: dict, text: str) -> ScoreTable:
        table = object.__new__(cls)
        object.__setattr__(table, "_grouped", grouped)
        object.__setattr__(table, "_text", text)
        return table

    def __getattr__(self, name: str):
        # only an unset slot gets here: a loaded table's dict, before anything read it
        if name != "probabilities" or self._text is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "probabilities", _read_lines(self._text))
        object.__setattr__(self, "_text", None)
        return self.probabilities

    def _rows(self) -> dict[str, dict[int, dict[int, int]]]:
        """sentence_id -> start -> {end: scaled log-probability}, built once."""
        if self._grouped is None:
            keys, probs = [], []
            for (sid, a, b), p in self.probabilities.items():
                if not (type(a) is int and type(b) is int):
                    raise ValueError(f"score key {(sid, a, b)!r}: start and end must be ints")
                try:
                    if type(p) is bool:
                        raise TypeError
                    in_range = 0.0 <= p <= 1.0
                except TypeError:
                    raise ValueError(
                        f"score key {(sid, a, b)!r}: probability {p!r} is not a number"
                    ) from None
                if not in_range:
                    raise ValueError(f"score key {(sid, a, b)!r}: probability {p} outside [0, 1]")
                keys.append((sid, a, b))
                probs.append(p)
            # a dict's keys are distinct, so no row repeats and the view is never None
            object.__setattr__(self, "_grouped", _group_columns(keys, probs))
        return self._grouped

    def get(self, sentence_id: str, start: int, end: int, default=None):
        return self.probabilities.get((sentence_id, start, end), default)

    def __len__(self) -> int:
        if self._text is not None:
            return _row_count(self._grouped)
        return len(self.probabilities)


def _row_count(grouped: dict[str, dict[int, dict[int, int]]]) -> int:
    return sum(map(len, chain.from_iterable(map(dict.values, grouped.values()))))


def _read_columns(text: str) -> tuple[Iterable[tuple[str, int, int]], list[float]] | None:
    """The ``(sentence_id, start, end)`` keys and the probabilities of
    ``text``'s non-blank lines, read column by column, or None unless every
    line has four fields that ``_read_lines`` would accept."""
    lines = list(filter(str.strip, text.split("\n")))
    if not lines:
        return [], []
    # Joined with "\n\t", every line but the last ends in a cell that ends in
    # "\n".  Four cells a line in all, and every such cell in the probability
    # column, prove four cells on each line: a short line beside a long one
    # has the same total, but puts a line's "\n" in another column.
    cells = "\n\t".join(lines).split("\t")
    probs = cells[3::4]
    if len(cells) != 4 * len(lines) or "".join(probs).count("\n") != len(lines) - 1:
        return None
    try:  # int and float read a cell as _read_lines does; both ignore the "\n"
        starts, ends = list(map(int, cells[1::4])), list(map(int, cells[2::4]))
        probs = list(map(float, probs))
    except ValueError:
        return None
    if min(starts) < 1 or not all(map(le, starts, ends)):
        return None
    if min(probs) < 0.0 or max(probs) > 1.0 or any(map(math.isnan, probs)):
        return None
    return zip(cells[0::4], starts, ends), probs


def _group_columns(keys, probs) -> dict[str, dict[int, dict[int, int]]] | None:
    """``ScoreTable._rows``'s view of checked keys and their probabilities,
    or None when a ``(sentence_id, start, end)`` repeats."""
    floored = probs if min(probs, default=1.0) >= 1e-300 else map(max, probs, repeat(1e-300))
    # scaled(math.log(p)) for every p, with no Python call per row (the float scale is exact)
    terms = map(float.__round__, map(mul, map(math.log, floored), repeat(float(SCALE))))
    grouped: dict[str, dict[int, dict[int, int]]] = {}
    sid = start = ends_of = None
    for (s, a, b), term in zip(keys, terms):
        if a != start or s != sid:  # rows of one sentence and start tend to be adjacent
            sid, start = s, a
            by_start = grouped.get(s)
            if by_start is None:
                by_start = grouped[s] = {}
            ends_of = by_start.get(a)
            if ends_of is None:
                ends_of = by_start[a] = {}
        ends_of[b] = term
    return grouped if _row_count(grouped) == len(probs) else None


def _read_lines(text: str) -> dict[tuple[str, int, int], float]:
    """The table one line at a time, as one dict keyed by (sentence_id, start,
    end): raises at the first bad line, and warns once about repeated keys."""
    table: dict[tuple[str, int, int], float] = {}
    duplicates, first = 0, 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise FormatError(
                f"expected 4 tab-separated fields, got {len(fields)}", line=lineno
            )
        sentence_id = fields[0]
        try:
            start, end = int(fields[1]), int(fields[2])
            probability = float(fields[3])
        except ValueError:
            raise FormatError(f"unreadable record {line!r}", line=lineno) from None
        if not 1 <= start <= end:
            raise FormatError(f"span ({start}, {end}) is not 1 <= start <= end", line=lineno)
        if not math.isfinite(probability) or not 0.0 <= probability <= 1.0:
            raise FormatError(
                f"probability {fields[3]} outside [0, 1]", line=lineno
            )
        key = (sentence_id, start, end)
        if key in table:
            duplicates += 1
            first = first or lineno
        table[key] = probability
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate score rows (the first on line {first}), keeping the last"
        )
    return table


def load_scores(data: str | bytes) -> ScoreTable:
    """Parse a TSV score stream: sentence_id, start, end, probability.

    Blank lines are skipped.  Duplicate keys keep the last value, and one
    warning counts them; malformed lines, spans that are not
    ``1 <= start <= end`` and out-of-range probabilities fail with the line
    number.  The text is cut once and read column by column, and the rows
    are grouped by sentence and start as they are read, so the table comes
    back with the view its segmentations read.  Only when a column fails a
    check, or a key repeats, is the text read again one line at a time, to
    name the line or count the repeats.
    """
    text = _decoded(data, FormatError)
    columns = _read_columns(text)
    grouped = None if columns is None else _group_columns(*columns)
    if grouped is not None:
        return ScoreTable._loaded(grouped, text)
    table = ScoreTable(probabilities=_read_lines(text))
    table._rows()
    return table


def unmatched_rows(scores: ScoreTable, sentences: list[Sentence]) -> tuple[int, int]:
    """Score rows no segmentation of ``sentences`` can use.

    Returns the count of rows whose sentence id is not among ``sentences``
    and the count of rows that end past their sentence's last token.
    """
    lengths = {s.sent_id: len(s) for s in sentences}
    unknown = past_end = 0
    for sentence_id, starts in scores._rows().items():
        n = lengths.get(sentence_id)
        if n is None:
            unknown += sum(map(len, starts.values()))
        elif max(chain.from_iterable(starts.values())) > n:  # rare: then count them
            past_end += sum(end > n for ends in starts.values() for end in ends)
    return unknown, past_end


def segment_by_scores(
    sentence: Sentence,
    scores: ScoreTable,
    span: SpanConfig,
    epsilon: float = 0.01,
) -> Segmentation:
    """Best segmentation under summed log-probabilities of its rhesis.

    Spans missing from the table score ``epsilon``; stored zeros are floored
    to keep the logarithm finite.  The sentence's rows, grouped by start,
    go to the dynamic program as they are: it slides a window over the
    ``epsilon`` spans and compares each admissible row on its own term, so
    the cost follows the sentence's tokens and its rows; only a start whose
    best ``epsilon`` span has a row below ``epsilon`` scans its admissible
    spans.  Ties go to fewer rhesis, then the earliest cut set, like the
    tree segmenter.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    struct = _Structure(sentence, span)
    fallback = scaled(math.log(max(epsilon, 1e-300)))
    rows = scores._rows().get(sentence.sent_id, {})
    cuts = best_sparse_cuts(struct.hi, struct.lo, struct.max_units, fallback, rows)
    return _finish(sentence, struct, cuts)
