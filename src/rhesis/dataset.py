"""Bridge to an external rhesis classifier: candidate export and score intake.

Training data goes out as labeled (sentence, sub-section) pairs: one positive
per gold rhesis, plus "smart" negatives — sub-sections sharing exactly one
boundary with the gold rhesis they were derived from, so the classifier sees
near misses rather than arbitrary spans, each a ``CandidateExample`` named
tuple whose fields are the TSV columns, in order.  Predicted probabilities come
back as a score table, and a log-probability dynamic program composes them into
one segmentation per sentence.  The table groups its rows by sentence once,
on first use, so a sentence costs its admissible spans and its own rows.
"""

from __future__ import annotations

import math
import random
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import NamedTuple

from ._dp import best_cuts, scaled
from .corpus import AlignedCorpus, Segmentation, Sentence, _decoded
from .errors import FormatError
from .scoring import _finish, _Structure
from .span import SpanConfig

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
    if negatives_per_positive < 0:
        raise ValueError("negatives_per_positive must be >= 0")
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

    The first segmentation or row count groups the rows by sentence id and
    keeps that view; do not mutate ``probabilities`` after that.  Grouping
    raises ``ValueError`` for a key whose start or end is not an int.
    """

    probabilities: dict[tuple[str, int, int], float]
    _grouped: dict | None = field(default=None, init=False, repr=False, compare=False)

    def _rows(self) -> dict[str, list[tuple[int, int, int]]]:
        """sentence_id -> [(start, end, scaled log-probability)], built once."""
        if self._grouped is None:
            grouped: dict[str, list[tuple[int, int, int]]] = {}
            for (sid, a, b), p in self.probabilities.items():
                if not (isinstance(a, int) and isinstance(b, int)):
                    raise ValueError(f"score key {(sid, a, b)!r}: start and end must be ints")
                grouped.setdefault(sid, []).append((a, b, scaled(math.log(max(p, 1e-300)))))
            object.__setattr__(self, "_grouped", grouped)
        return self._grouped

    def get(self, sentence_id: str, start: int, end: int, default=None):
        return self.probabilities.get((sentence_id, start, end), default)

    def __len__(self) -> int:
        return len(self.probabilities)


def load_scores(data: str | bytes) -> ScoreTable:
    """Parse a TSV score stream: sentence_id, start, end, probability.

    Blank lines are skipped.  Duplicate keys keep the last value, and one
    warning counts them; malformed lines, spans that are not
    ``1 <= start <= end`` and out-of-range probabilities fail with the line
    number.
    """
    data = _decoded(data, FormatError)
    table: dict[tuple[str, int, int], float] = {}
    duplicates, first = 0, 0
    for lineno, line in enumerate(data.split("\n"), start=1):
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
    return ScoreTable(probabilities=table)


def unmatched_rows(scores: ScoreTable, sentences: list[Sentence]) -> tuple[int, int]:
    """Score rows no segmentation of ``sentences`` can use.

    Returns the count of rows whose sentence id is not among ``sentences``
    and the count of rows that end past their sentence's last token.
    """
    lengths = {s.sent_id: len(s) for s in sentences}
    unknown = past_end = 0
    for sentence_id, rows in scores._rows().items():
        n = lengths.get(sentence_id)
        if n is None:
            unknown += len(rows)
        else:
            past_end += sum(end > n for _, end, _ in rows)
    return unknown, past_end


def segment_by_scores(
    sentence: Sentence,
    scores: ScoreTable,
    span: SpanConfig,
    epsilon: float = 0.01,
) -> Segmentation:
    """Best segmentation under summed log-probabilities of its rhesis.

    Spans missing from the table score ``epsilon``; stored zeros are floored
    to keep the logarithm finite.  Every admissible span starts at the
    ``epsilon`` term, then the sentence's own rows that are admissible
    overwrite theirs.  Ties go to fewer rhesis, then the earliest cut set,
    like the tree segmenter.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    struct = _Structure(sentence, span)
    fallback = scaled(math.log(max(epsilon, 1e-300)))
    n, last = struct.n, struct.fit_end
    rows = [[fallback] * (max(a, last[a]) - a + 1) for a in range(1, n + 1)]
    for a, b, term in scores._rows().get(sentence.sent_id, ()):
        if 1 <= a <= n and a <= b <= max(a, last[a]):
            rows[a - 1][b - a] = term
    return _finish(sentence, struct, best_cuts(rows, [0] * (n - 1)))
