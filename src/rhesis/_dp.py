"""Exact dynamic program shared by the scored segmenters.

Scores are quantized to a fixed binary grid (``round(x * 2**40)``) and summed
as integers.  Integer sums are associative, so the optimum and every
tie-break come out identical no matter how candidate segmentations are
enumerated — which is what lets a brute-force oracle reproduce the DP answer
bit for bit.  With per-term magnitudes below ~2000 the scaled values stay
well inside float64's exact-integer range, so the quantization itself is
deterministic.

The loops only add and compare their terms, so they work on Python ints and
on floats that hold integers alike.  A double holds every integer below
2^53, and the sum of two such integers exactly while it stays below 2^53.
``scoring._optimal_cuts`` hands ``best_measured_cuts`` a float balance table
when its weights and sentence length bound every sum the DP forms below
2^52, since float additions are cheaper than those of ints past 2^30, and
ints otherwise; both give the same cuts.

The DP maximizes  sum(segment terms) + sum(cut terms)  over all segmentations
whose every segment is admissible, breaking ties toward fewer segments and
then the lexicographically smallest cut tuple.  That order is total on
distinct segmentations, so the optimum is unique.

Two loops share that order.  Each runs over suffixes, from the last start
``a = n`` down to ``1``, so each step reads only finished results: the best
cover of ``b + 1..n`` for every end ``b`` from ``a``.  A candidate end
replaces the current best only on a higher score, or on an equal score with
fewer segments, or, where ends are not tried in ascending order, on an
equal score and count with a smaller end.  On a full tie the smallest end
survives, and that is the lexicographically smallest cut tuple: tied
candidates from ``a`` have equal segment counts, and their cut tuples first
differ at that end.  In both loops every single-token segment is
admissible, oversized ones included.  The tests check both against a dense
reference that takes one row of terms per start.

- ``best_measured_cuts`` takes token offsets and one term per measure, and
  reads each segment's term where it uses it.  The tree DP, whose segment
  term depends on the measure alone, runs it, in O(n·w) for ``n`` tokens
  and segments of at most ``w`` tokens.
- ``best_sparse_cuts`` takes token offsets, one constant term for every
  segment and a few overrides per start, with no cut terms.  The scores DP
  runs it: its constant is the ``epsilon`` term and its overrides are the
  classifier's rows.  It keeps the best constant-term end of a sliding
  window in a monotone deque, so it costs O(n + rows), save the starts whose
  window's best end is overridden by a lower term: each of those scans its
  window, O(w).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence

SCALE = 1 << 40


def scaled(value: float) -> int:
    """Quantize a score term onto the shared integer grid."""
    return round(value * SCALE)


def best_measured_cuts(
    hi: Sequence[int], lo: Sequence[int], terms: Sequence[int], cut_terms: Sequence[int]
) -> tuple[int, ...]:
    """Optimal internal cut positions for segment terms that depend on a segment's measure alone.

    The segment ``a..b`` measures ``hi[b] - lo[a]`` (both offsets 1-based and
    never decreasing) and scores ``terms[hi[b] - lo[a]]``; it is admissible
    when that measure is below ``len(terms)``, or when ``a == b``, and a
    singleton whose measure has no term scores 0.  From each start ``a`` the
    ends ``b`` are walked upward until the first measure without a term,
    so no row and no last end is built, and the tie rule is the module's:
    the higher score, then fewer segments, then the smallest ``b``.  A cut
    between tokens ``i`` and ``i + 1`` scores ``cut_terms[i - 1]``.
    """
    n = len(hi) - 1
    hi = [*hi, math.inf]  # no measure reaches past the last token
    top = len(terms) - 1
    count = [0] * (n + 2)
    nxt = [0] * (n + 1)
    tail = [0] * (n + 1)
    for a in range(n, 0, -1):
        base = lo[a]
        bound, h = base + top, hi[a]
        best_b, best_s, best_c = a, (terms[h - base] if h <= bound else 0) + tail[a], count[a + 1]
        b = a + 1
        h = hi[b]
        while h <= bound:
            s = terms[h - base] + tail[b]
            if s > best_s or (s == best_s and count[b + 1] < best_c):
                best_b, best_s, best_c = b, s, count[b + 1]
            b += 1
            h = hi[b]
        count[a] = best_c + 1
        nxt[a] = best_b + 1
        if a > 1:
            tail[a - 1] = cut_terms[a - 2] + best_s
    cuts = []
    a = nxt[1]
    while a <= n:
        cuts.append(a - 1)
        a = nxt[a]
    return tuple(cuts)


def best_sparse_cuts(
    hi: Sequence[int],
    lo: Sequence[int],
    cap: int,
    fallback: int,
    scored: Mapping[int, Mapping[int, int]],
) -> tuple[int, ...]:
    """Optimal internal cut positions for segments that all score ``fallback`` but a few.

    The segment ``a..b`` measures ``hi[b] - lo[a]`` (both offsets 1-based and
    never decreasing) and is admissible when that measure is at most ``cap``,
    or when ``a == b``.  It scores ``scored[a][b]`` when that is present and
    ``fallback`` otherwise; entries whose end is before ``a`` or past the last
    admissible end, and starts outside ``1..n``, are never read.  No cut
    scores anything.  The tie rule is the module's: the higher score, then
    fewer segments, then the smallest ``b``.

    The admissible ends from ``a`` are ``a..top``, and ``top`` only moves
    down as ``a`` does.  Among them, the best end at ``fallback`` is the one
    with the greatest ``(tail[b], -count[b + 1], -b)``: ``window`` holds the
    candidates in ascending ``b`` with that key ascending, so the best is on
    the right.  A start's own entries are then compared on their terms.
    Only when the window's best end has an entry below ``fallback`` are the
    start's other ends scanned, since the next best may be any of them.
    """
    n = len(hi) - 1
    count = [0] * (n + 2)
    nxt = [0] * (n + 1)
    tail = [0] * (n + 1)
    window: deque[int] = deque()
    top = n
    for a in range(n, 0, -1):
        t, c = tail[a], count[a + 1]
        # a beats every end after it with a lower tail, or an equal one and no fewer segments
        while window and (u := tail[f := window[0]]) <= t and (u < t or count[f + 1] >= c):
            window.popleft()
        window.appendleft(a)
        bound = lo[a] + cap
        while top > a and hi[top] > bound:
            top -= 1
        while window[-1] > top:
            window.pop()
        best_b = window[-1]
        best_s, best_c = fallback + tail[best_b], count[best_b + 1]
        row = scored.get(a)
        if row:
            if row.get(best_b, fallback) < fallback:
                # its row puts the window's best end below fallback: scan the ends without a row
                best_b, best_s, best_c = 0, -math.inf, 0
                for b in range(a, top + 1):
                    if b not in row:
                        s = fallback + tail[b]
                        if s > best_s or (s == best_s and count[b + 1] < best_c):
                            best_b, best_s, best_c = b, s, count[b + 1]
            # a row at or above fallback only lifts the window's best end: no other end is needed
            for b, term in row.items():
                if a <= b <= top:
                    s, c = term + tail[b], count[b + 1]
                    if s > best_s or (
                        s == best_s and (c < best_c or (c == best_c and b < best_b))
                    ):
                        best_b, best_s, best_c = b, s, c
        count[a] = best_c + 1
        nxt[a] = best_b + 1
        if a > 1:
            tail[a - 1] = best_s
    cuts = []
    a = nxt[1]
    while a <= n:
        cuts.append(a - 1)
        a = nxt[a]
    return tuple(cuts)
