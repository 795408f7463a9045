"""The per-sentence index as it stood before its tables came from slices.

``cut_score``, ``_Structure`` (its ``measure``, ``fit_end``, ``measure_rows``
and ``candidates`` in particular) and ``_optimal_cuts`` are kept verbatim
from that version: one ``measure()`` call per admissible segment, a
two-pointer ``fit_end``, a ``CutCandidate`` with its full crossing tuple per
boundary, and the balance rows mapped through a dict over
``measure_values``.  ``test_index`` checks the current module against them.
"""

from functools import cached_property

from dp_reference import best_cuts
from rhesis._dp import scaled
from rhesis.corpus import Sentence, _top_down
from rhesis.scoring import CutCandidate, ScoringWeights
from rhesis.span import SpanConfig


def cut_score(cand: CutCandidate, w: ScoringWeights) -> float:
    """Linear score of one cut; higher is better."""
    return (
        w.w_dep * w.lookup(cand.primary_edge[2])
        - w.w_depth * cand.depth
        - w.w_cross * (len(cand.crossing) - 1)
        - w.w_count
    )


class _Structure:
    """The per-sentence index read by every segmenter, the export and the tuner.

    ``measure(a, b) == text_measure(sentence.span_text(a, b), span)`` without
    building the slice.  Characters come from the token offsets that
    ``Sentence.from_tokens`` lays out; words from a count of word starts over
    the surface text, so a form that holds spaces counts as all of its words.
    ``measure(a, b)`` never shrinks as ``a`` decreases or ``b`` grows.

    Everything else is built on first use, so a consumer pays only for what
    it reads.  The span facts: ``fit_end`` (the last end that fits from
    each start) from one two-pointer pass, and ``measure_rows``, the measure
    of every admissible segment laid out the way ``dp_reference.best_cuts``
    reads its rows.  The tree facts: ``depth[i] == token_depth(sentence, i)``
    and ``extents[i] == helpers.subtree_span(sentence, i)`` from one pass
    each, and ``candidates[p - 1] == crossing_edges(sentence, p)`` for every
    boundary from one sweep over the edges, in O(n + total arc length).  None
    of these depends on the weights, so the tuner builds them once per
    sentence.
    """

    def __init__(self, sentence: Sentence, span: SpanConfig):
        self._tokens = sentence.tokens
        self.n = len(sentence.tokens)
        self.max_units = span.max_chars
        self.target = span.target_chars
        self.words_mode = span.count_mode == "words"
        # 1-based: token a covers sentence.text[_start[a]:_end[a]]
        self._start = (0, *sentence.starts)
        self._end = (0, *sentence.ends)
        if self.words_mode:
            self._count_words(sentence.text)

    def _count_words(self, text: str) -> None:
        begun = [0]  # begun[p]: words of ``text`` that begin before offset p
        prev_space = True
        for ch in text:
            space = ch.isspace()
            begun.append(begun[-1] + (prev_space and not space))
            prev_space = space
        self._wend = [begun[e] for e in self._end]
        # a span that starts inside a word counts that word as its first
        self._wstart = [
            begun[s] - (0 < s < len(text) and not text[s - 1].isspace() and not text[s].isspace())
            for s in self._start
        ]

    def measure(self, a: int, b: int) -> int:
        # an empty surface (only empty forms) holds no words and no characters
        if self.words_mode and self._end[b] > self._start[a]:
            return self._wend[b] - self._wstart[a]
        return self._end[b] - self._start[a]

    def admissible(self, a: int, b: int) -> bool:
        return a == b or self.measure(a, b) <= self.max_units

    @cached_property
    def fit_end(self) -> list[int]:
        """``fit_end[s]``: the last ``e`` with ``measure(s, e) <= max_units``, ``s - 1`` if none.

        Unlike ``admissible``, an oversized single token does not fit.  The
        measure never shrinks as a span widens, so ``fit_end`` never
        decreases and one pass finds it.
        """
        fit_end = [0] * (self.n + 1)
        e = 0
        for s in range(1, self.n + 1):
            e = max(e, s - 1)
            while e < self.n and self.measure(s, e + 1) <= self.max_units:
                e += 1
            fit_end[s] = e
        return fit_end

    @cached_property
    def measure_rows(self) -> list[list[int]]:
        """``measure_rows[a - 1][k] == measure(a, a + k)`` for every admissible ``a..a + k``."""
        measure = self.measure
        return [
            [measure(a, b) for b in range(a, max(a, e) + 1)]
            for a, e in enumerate(self.fit_end[1:], 1)
        ]

    @cached_property
    def measure_values(self) -> frozenset[int]:
        """Every distinct value in ``measure_rows``."""
        return frozenset().union(*self.measure_rows)

    @cached_property
    def _tree(self) -> tuple[list[list[int]], list[int]]:
        return _top_down(tuple(t.head for t in self._tokens))

    @cached_property
    def depth(self) -> list[int]:
        children, order = self._tree
        depth = [0] * (self.n + 1)
        for node in order:
            for child in children[node]:
                depth[child] = depth[node] + 1
        return depth

    @cached_property
    def extents(self) -> list[tuple[int, int]]:
        lo = list(range(self.n + 1))
        hi = list(range(self.n + 1))
        for node in reversed(self._tree[1]):
            head = self._tokens[node - 1].head
            lo[head] = min(lo[head], lo[node])
            hi[head] = max(hi[head], hi[node])
        return list(zip(lo, hi))

    @cached_property
    def candidates(self) -> tuple[CutCandidate, ...]:
        children = self._tree[0]
        depth = self.depth
        crossing: list[list[tuple[int, int, str]]] = [[] for _ in range(self.n)]
        primary: list[tuple[int, int, str] | None] = [None] * self.n
        shallowest = [self.n] * self.n
        # edges in (head, dependent) order: every boundary's list comes out
        # sorted, and the first shallowest edge is the primary one
        for head in range(1, self.n + 1):
            for dep in children[head]:
                edge = (head, dep, self._tokens[dep - 1].deprel)
                d = depth[dep]
                for p in range(min(head, dep), max(head, dep)):
                    crossing[p].append(edge)
                    if d < shallowest[p]:
                        shallowest[p] = d
                        primary[p] = edge
        return tuple(
            CutCandidate(position=p, crossing=tuple(crossing[p]), primary_edge=primary[p],
                         depth=shallowest[p])
            for p in range(1, self.n)
        )


def _optimal_cuts(struct: _Structure, w: ScoringWeights) -> tuple[int, ...]:
    cut_terms = [scaled(cut_score(cand, w)) for cand in struct.candidates]
    # the balance term depends on the segment only through its measure
    balance = {
        m: scaled(-w.w_balance * abs(m - struct.target)) for m in struct.measure_values
    }
    rows = [[balance[m] for m in row] for row in struct.measure_rows]
    return best_cuts(rows, cut_terms)

