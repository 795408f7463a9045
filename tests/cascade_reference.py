"""The cascade as it stood before each level became one sentence-wide set.

``find_cuts_at_level``, ``_level_cuts``, ``cascade_segment`` and ``regroup``
are kept verbatim from that version: each oversized piece re-scans its own
tokens, clause onsets come through a per-sentence cached thunk, and regroup
decides fit with a second per-sentence index.  ``test_cascade`` checks the
current module against them.
"""

import warnings
from functools import cache
from typing import Callable

from rhesis.cascade import (
    _FINAL_PUNCTUATION,
    CUT_LEVELS,
    CascadeConfig,
    CutLevel,
    _clause_onsets,
    chunk_boundaries,
)
from rhesis.corpus import Segmentation, Sentence, segmentation_from_spans
from rhesis.errors import OversizedTokenWarning
from rhesis.scoring import _Structure


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
    n = len(sentence.tokens)
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad segment ({lo}, {hi}) for {n} tokens")
    return _level_cuts(
        sentence, segment, level, config,
        lambda: _clause_onsets(sentence, config, _Structure(sentence, config.span)),
    )


def _level_cuts(
    sentence: Sentence,
    segment: tuple[int, int],
    level: CutLevel,
    config: CascadeConfig,
    clause_onsets: Callable[[], set[int]],
) -> set[int]:
    """find_cuts_at_level on a checked segment, reading clause onsets from ``clause_onsets()``."""
    lo, hi = segment
    toks = sentence.tokens
    cuts: set[int] = set()
    if level.name == "punctuation":
        for tok in toks[lo - 1 : hi]:
            if tok.upos == "PUNCT" and tok.form in config.cut_punctuation:
                cuts.add(tok.index)
    elif level.name == "clause":
        cuts = clause_onsets()
    elif level.name == "priority_preposition":
        for tok in toks[lo - 1 : hi]:
            if tok.upos == "ADP" and tok.form.lower() in config.priority_prepositions:
                cuts.add(tok.index - 1)
    elif level.name == "chunk":
        cuts = chunk_boundaries(sentence, segment, config)
    elif level.name == "other_preposition":
        for tok in toks[lo - 1 : hi]:
            if tok.upos == "ADP" and tok.form.lower() not in config.priority_prepositions:
                cuts.add(tok.index - 1)
    elif level.name == "word":
        cuts = set(range(lo, hi))
    else:
        raise ValueError(f"unknown cut level {level.name!r}")
    return {c for c in cuts if lo <= c <= hi - 1}


def cascade_segment(sentence: Sentence, config: CascadeConfig) -> Segmentation:
    """Segment a sentence by recursive application of the cut levels.

    Each piece that does not fit the span is split at the first level (from
    its current position in the cascade) that proposes cuts; pieces continue
    with the next level.  A piece no level can split is emitted as-is with
    an OversizedTokenWarning.  Clause onsets are found once per sentence.
    """
    spans: list[tuple[int, int]] = []
    index = _Structure(sentence, config.span)
    clause_onsets = cache(lambda: _clause_onsets(sentence, config, index))

    def descend(lo: int, hi: int, level_index: int) -> None:
        if index.measure(lo, hi) <= index.max_units:
            spans.append((lo, hi))
            return
        for li in range(level_index, len(CUT_LEVELS)):
            cuts = _level_cuts(sentence, (lo, hi), CUT_LEVELS[li], config, clause_onsets)
            if cuts:
                bounds = [lo - 1, *sorted(cuts), hi]
                for a, b in zip(bounds, bounds[1:]):
                    descend(a + 1, b, li + 1)
                return
        spans.append((lo, hi))
        warnings.warn(
            f"sentence {sentence.sent_id!r}: {sentence.span_text(lo, hi)!r} "
            f"exceeds the span and cannot be split further",
            OversizedTokenWarning,
            stacklevel=3,
        )

    descend(1, len(sentence.tokens), 0)
    return segmentation_from_spans(sentence, spans)


def regroup(sentence: Sentence, seg: Segmentation, config: CascadeConfig) -> Segmentation:
    """Greedily merge adjacent rhesis whose joint surface still fits.

    Scans left to right, repeatedly absorbing the next rhesis into the
    current one while the merged text fits the span; never merges across a
    sentence-final punctuation mark (., !, ?).
    """
    if not seg.rhesis:
        return seg
    index = _Structure(sentence, config.span)
    merged: list[tuple[int, int]] = []
    cur_start, cur_end = seg.rhesis[0].start, seg.rhesis[0].end
    for nxt in seg.rhesis[1:]:
        boundary_tok = sentence.tokens[cur_end - 1]
        blocked = boundary_tok.upos == "PUNCT" and boundary_tok.form in _FINAL_PUNCTUATION
        if not blocked and index.measure(cur_start, nxt.end) <= index.max_units:
            cur_end = nxt.end
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = nxt.start, nxt.end
    merged.append((cur_start, cur_end))
    return segmentation_from_spans(sentence, merged)
