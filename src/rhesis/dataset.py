"""Bridge to an external rhesis classifier: candidate export and score intake.

Training data goes out as labeled (sentence, sub-section) pairs: one positive
per gold rhesis, plus "smart" negatives — sub-sections sharing exactly one
boundary with the gold rhesis they were derived from, so the classifier sees
near misses rather than arbitrary spans.  Predicted probabilities come back
as a score table, and a log-probability dynamic program composes them into
one segmentation per sentence.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

from ._dp import best_cuts, scaled
from .corpus import AlignedCorpus, Segmentation, Sentence, _decoded, segmentation_from_cuts
from .errors import FormatError
from .scoring import _Structure, _warn_oversized
from .span import SpanConfig, fits_span

__all__ = [
    "CandidateExample",
    "ScoreTable",
    "export_candidates",
    "candidates_to_tsv",
    "finetune_manifest",
    "load_scores",
    "segment_by_scores",
]

# Settings recommended to the external fine-tuning run, recorded verbatim in
# the export manifest alongside the split convention.
MAX_SEQ_LENGTH = 48
BATCH_SIZE = 16
LEARNING_RATE = 2e-5
EPOCHS = 3
HOLDOUT_FRACTION = 0.33


@dataclass(frozen=True, slots=True)
class CandidateExample:
    sentence_id: str
    sentence_text: str
    start: int
    end: int
    candidate_text: str
    label: int


def _example(sentence: Sentence, start: int, end: int, label: int) -> CandidateExample:
    return CandidateExample(
        sentence_id=sentence.sent_id,
        sentence_text=sentence.text,
        start=start,
        end=end,
        candidate_text=sentence.span_text(start, end),
        label=label,
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
        n = len(sentence.tokens)
        gold_spans = list(entry.gold.spans())
        used = set(gold_spans)

        def feasible(s: int, e: int) -> bool:
            return fits_span(sentence.span_text(s, e), span)

        for gs, ge in gold_spans:
            examples.append(_example(sentence, gs, ge, 1))
        for gs, ge in gold_spans:
            smart = [(gs, e) for e in range(gs, n + 1) if e != ge]
            smart += [(s, ge) for s in range(1, ge + 1) if s != gs]
            pool = sorted(c for c in smart if c not in used and feasible(*c))
            chosen = rng.sample(pool, min(negatives_per_positive, len(pool)))
            used.update(chosen)
            if len(chosen) < negatives_per_positive:
                fallback = sorted(
                    (s, e)
                    for s in range(1, n + 1)
                    for e in range(s, n + 1)
                    if (s, e) not in used and feasible(s, e)
                )
                extra = rng.sample(
                    fallback, min(negatives_per_positive - len(chosen), len(fallback))
                )
                used.update(extra)
                chosen += extra
            for s, e in chosen:
                examples.append(_example(sentence, s, e, 0))
    rng.shuffle(examples)
    return examples


_TSV_HEADER = "sentence_id\tsentence_text\tstart\tend\tcandidate_text\tlabel"


def candidates_to_tsv(examples: list[CandidateExample]) -> str:
    """Serialize examples as UTF-8 TSV with a header line."""
    lines = [_TSV_HEADER]
    for ex in examples:
        lines.append(
            f"{ex.sentence_id}\t{ex.sentence_text}\t{ex.start}\t{ex.end}"
            f"\t{ex.candidate_text}\t{ex.label}"
        )
    return "\n".join(lines) + "\n"


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
    """Probabilities for (sentence_id, start, end) spans, from a classifier."""

    probabilities: dict[tuple[str, int, int], float]

    def get(self, sentence_id: str, start: int, end: int, default=None):
        return self.probabilities.get((sentence_id, start, end), default)

    def __len__(self) -> int:
        return len(self.probabilities)


def load_scores(data: str | bytes) -> ScoreTable:
    """Parse a TSV score stream: sentence_id, start, end, probability.

    Blank lines are skipped.  Duplicate keys keep the last value and warn;
    malformed lines or out-of-range probabilities fail with the line number.
    """
    data = _decoded(data, FormatError)
    table: dict[tuple[str, int, int], float] = {}
    for lineno, raw in enumerate(data.split("\n"), start=1):
        line = raw.rstrip("\r")
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
        if not math.isfinite(probability) or not 0.0 <= probability <= 1.0:
            raise FormatError(
                f"probability {fields[3]} outside [0, 1]", line=lineno
            )
        key = (sentence_id, start, end)
        if key in table:
            warnings.warn(f"line {lineno}: duplicate score for {key}, keeping the last")
        table[key] = probability
    return ScoreTable(probabilities=table)


def segment_by_scores(
    sentence: Sentence,
    scores: ScoreTable,
    span: SpanConfig,
    epsilon: float = 0.01,
) -> Segmentation:
    """Best segmentation under summed log-probabilities of its rhesis.

    Spans missing from the table score ``epsilon``; stored zeros are floored
    to keep the logarithm finite.  Ties go to fewer rhesis, then the
    earliest cut set, like the tree segmenter.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    struct = _Structure(sentence, span)

    def segment_term(a: int, b: int) -> int:
        p = scores.get(sentence.sent_id, a, b)
        if p is None:
            p = epsilon
        return scaled(math.log(max(p, 1e-300)))

    cuts = best_cuts(struct.n, segment_term, lambda i: 0, struct.admissible)
    seg = segmentation_from_cuts(sentence, cuts)
    _warn_oversized(sentence, seg, span)
    return seg
