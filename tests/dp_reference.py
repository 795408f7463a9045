"""The dense reference for the scored segmenters' dynamic programs.

``best_cuts`` is kept verbatim from the version of ``rhesis._dp`` in which
the scores DP still ran it.  No segmenter runs it now; it takes the segment
terms as a dense table, one row per start, and the tests check
``_dp.best_measured_cuts`` and ``_dp.best_sparse_cuts`` against it.
"""

from collections.abc import Sequence


def best_cuts(rows: Sequence[Sequence[int]], cut_terms: Sequence[int]) -> tuple[int, ...]:
    """Optimal internal cut positions for a sentence of ``len(rows)`` tokens: the dense reference.

    ``rows[a - 1][k]`` scores the segment of tokens ``a..a + k`` (1-based,
    inclusive) on the integer grid; the row lists every admissible segment
    from ``a`` and no other, so it starts with the singleton ``a..a`` and
    ends at the last admissible end.  ``cut_terms[i - 1]`` scores a cut
    between tokens ``i`` and ``i + 1``.

    The starts run from ``n`` down to ``1``.  For start ``a`` the ends ``b``
    are tried in ascending order against the best cover of ``b + 1..n``
    found earlier, and a candidate replaces the current best only on a
    higher score, or on an equal score with fewer segments.  So on a full
    tie the smallest ``b`` survives, and that is the lexicographically
    smallest cut tuple: tied candidates from ``a`` have equal segment
    counts, and their cut tuples first differ at ``b``.  The optimum under
    (score, fewer segments, earlier cuts) therefore comes out of plain
    integer comparisons, in O(n·w) steps for segments of at most ``w``
    tokens.
    """
    n = len(rows)
    if n <= 0:
        raise ValueError("need at least one token")
    # count[a]: segments in the best cover of a..n; nxt[a]: the start after its first segment;
    # tail[b]: the cut after b plus the best cover of b + 1..n (nothing after the last token)
    count = [0] * (n + 2)
    nxt = [0] * (n + 1)
    tail = [0] * (n + 1)
    for a in range(n, 0, -1):
        row = rows[a - 1]
        best_b, best_s, best_c = a, row[0] + tail[a], count[a + 1]
        for b, term in enumerate(row[1:], a + 1):
            s = term + tail[b]
            if s > best_s or (s == best_s and count[b + 1] < best_c):
                best_b, best_s, best_c = b, s, count[b + 1]
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
