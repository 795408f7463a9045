"""Score intake as it stood before the score table grouped its rows by sentence.

``segment_by_scores`` and ``unmatched_rows`` are kept verbatim from that
version: the segmenter looks up every admissible span's ``(sent_id, a, b)``
key and takes its log on a hit, and the row count walks every key.
``test_score_groups`` checks the current module against them.
"""

from __future__ import annotations

import math

from dp_reference import best_cuts
from rhesis._dp import scaled
from rhesis.corpus import Segmentation, Sentence
from rhesis.dataset import ScoreTable
from rhesis.scoring import _finish, _Structure
from rhesis.span import SpanConfig


def unmatched_rows(scores: ScoreTable, sentences: list[Sentence]) -> tuple[int, int]:
    """Score rows no segmentation of ``sentences`` can use.

    Returns the count of rows whose sentence id is not among ``sentences``
    and the count of rows that end past their sentence's last token.
    """
    lengths = {s.sent_id: len(s) for s in sentences}
    unknown = past_end = 0
    for sentence_id, _, end in scores.probabilities:
        n = lengths.get(sentence_id)
        if n is None:
            unknown += 1
        elif end > n:
            past_end += 1
    return unknown, past_end


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
    fallback = scaled(math.log(max(epsilon, 1e-300)))
    get = scores.probabilities.get
    sid = sentence.sent_id
    rows = []
    for a, e in enumerate(struct.fit_end[1:], 1):
        row = []
        for b in range(a, max(a, e) + 1):
            p = get((sid, a, b))
            row.append(fallback if p is None else scaled(math.log(max(p, 1e-300))))
        rows.append(row)
    return _finish(sentence, struct, best_cuts(rows, [0] * (struct.n - 1)))
