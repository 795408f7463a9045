"""Exact dynamic program shared by the scored segmenters.

Scores are quantized to a fixed binary grid (``round(x * 2**40)``) and summed
as Python ints.  Integer sums are associative, so the optimum and every
tie-break come out identical no matter how candidate segmentations are
enumerated — which is what lets a brute-force oracle reproduce the DP answer
bit for bit.  With per-term magnitudes below ~2000 the scaled values stay
well inside float64's exact-integer range, so the quantization itself is
deterministic.

The DP maximizes  sum(segment_term(a, b)) + sum(cut_term(i))  over all
segmentations whose every segment is admissible, breaking ties toward fewer
segments and then the lexicographically smallest cut tuple.  That order is
total on distinct candidates, so the order in which starts are tried cannot
change the answer either.

Admissibility must be monotone in the start: if ``a..b`` is admissible, so
is ``a + 1..b``.  Every single-token segment must be admissible too.  A span
measure that never shrinks as its start moves left gives both (with
oversized single tokens let in), and it lets the search for each end stop at
the first start that is too far left.  The cost is O(n·w) calls for ``n``
tokens and segments of at most ``w`` tokens, instead of O(n²).
"""

from __future__ import annotations

from typing import Callable

SCALE = 1 << 40


def scaled(value: float) -> int:
    """Quantize a score term onto the shared integer grid."""
    return round(value * SCALE)


def best_cuts(
    n: int,
    segment_term: Callable[[int, int], int],
    cut_term: Callable[[int], int],
    admissible: Callable[[int, int], bool],
) -> tuple[int, ...]:
    """Optimal internal cut positions for a sentence of ``n`` tokens.

    ``segment_term(a, b)`` scores the segment of tokens ``a..b`` (1-based,
    inclusive) on the integer grid; ``cut_term(i)`` scores a cut between
    tokens ``i`` and ``i + 1``; ``admissible(a, b)`` gates which segments may
    appear at all.  Every single-token segment must be admissible, and if
    ``a..b`` is admissible then so is ``a + 1..b``: the starts for each end
    are tried from ``b`` leftwards and the scan stops at the first
    inadmissible one.  That costs O(n·w) calls, where ``w`` is the longest
    admissible segment in tokens.
    """
    if n <= 0:
        raise ValueError("need at least one token")
    # best[j]: (score, segment_count, cuts) for the optimal cover of 1..j.
    best: list[tuple[int, int, tuple[int, ...]] | None] = [None] * (n + 1)
    best[0] = (0, 0, ())
    for j in range(1, n + 1):
        chosen = None
        for i in range(j - 1, -1, -1):
            if not admissible(i + 1, j):
                break
            prev = best[i]
            if prev is None:
                continue
            score = prev[0] + segment_term(i + 1, j)
            if i > 0:
                score += cut_term(i)
                cuts = prev[2] + (i,)
            else:
                cuts = ()
            cand = (score, prev[1] + 1, cuts)
            if chosen is None or _better(cand, chosen):
                chosen = cand
        best[j] = chosen
    if best[n] is None:
        raise ValueError("no admissible segmentation covers the sentence")
    return best[n][2]


def _better(a: tuple[int, int, tuple[int, ...]], b: tuple[int, int, tuple[int, ...]]) -> bool:
    """Whether candidate ``a`` beats ``b``: higher score, fewer segments, earlier cuts."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]
