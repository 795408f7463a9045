"""From CoNLL-U text to rheses and back, for token text that is hard to carry.

Hypothesis writes CoNLL-U whose forms hold inner and edge spaces, a
leading ``#`` or ``\\``, combining marks and ``SpaceAfter=No``, and parses
it.  For the cascade with regrouping, the tree DP and the score DP, in both
count modes: every unit fits the span or is one oversized token, and the
rendered text read back by ``parse_gold`` and ``align_gold`` gives the same
spans.
"""

import random
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    CascadeConfig,
    OversizedTokenWarning,
    ScoreTable,
    ScoringWeights,
    SpanConfig,
    align_gold,
    cascade_segment,
    fits_span,
    parse_conllu,
    parse_gold,
    regroup,
    render_text,
    segment_best,
    segment_by_scores,
)

_FORMS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "", "#", "\\", "#doc ", "\\#", "\u0301"]),
    st.text(alphabet="ab \u00e9\u0301\u0327,.'", min_size=1, max_size=5),
    st.sampled_from(["", "", "\u0308"]),
).filter(str.strip)  # inner and edge spaces, escapes, combining marks; never blank
_MISCS = st.sampled_from(["_", "_", "SpaceAfter=No", "A=B|SpaceAfter=No"])
_DEPRELS = st.sampled_from(
    ["nsubj", "obj", "det", "case", "conj", "cc", "advcl", "mark", "obl", "amod", "punct", "acl:relcl"]
)
_UPOS = st.sampled_from(["NOUN", "VERB", "PUNCT", "ADP", "DET", "CCONJ", "SCONJ", "PRON"])

_WEIGHTS = ScoringWeights(
    w_dep=1.0, w_count=0.1, w_balance=0.05,
    deprel_weights={"conj": 0.9, "advcl": 0.8, "det": -0.8, "case": -0.5},
)


@st.composite
def _block(draw, k: int) -> str:
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for j, tok in enumerate(order[1:], 1):  # each token under one placed before it
        heads[tok - 1] = order[draw(st.integers(0, j - 1))]
    rows = [f"# sent_id = d{k}"]
    for i in range(1, n + 1):
        head = heads[i - 1]
        deprel = "root" if head == 0 else draw(_DEPRELS)
        rows.append("\t".join([str(i), draw(_FORMS), "_", draw(_UPOS), "_", "_", str(head),
                               deprel, "_", draw(_MISCS)]))
    return "\n".join(rows) + "\n"


@st.composite
def _document(draw) -> str:
    count = draw(st.integers(1, 3))
    return "\n".join(draw(_block(k)) for k in range(count))


def _segmenters(span: SpanConfig, seed: int):
    cascade = CascadeConfig(span=span)

    def scores(sentence):
        rng = random.Random(f"{seed}/{sentence.sent_id}")
        n = len(sentence)
        table = {
            (sentence.sent_id, a, b): rng.random()
            for a in range(1, n + 1)
            for b in range(a, n + 1)
            if rng.random() < 0.5
        }
        return segment_by_scores(sentence, ScoreTable(probabilities=table), span)

    return {
        "cascade": lambda s: regroup(s, cascade_segment(s, cascade), cascade),
        "tree": lambda s: segment_best(s, _WEIGHTS, span),
        "scores": scores,
    }


@settings(max_examples=200, deadline=None)
@given(
    data=_document(),
    chars=st.integers(3, 30),
    words=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_units_fit_and_round_trip_from_conllu_text(data, chars, words, seed):
    sentences = parse_conllu(data)
    spans = (
        SpanConfig(max_chars=chars, target_chars=max(1, chars * 2 // 3)),
        SpanConfig(max_chars=words, target_chars=words, count_mode="words"),
    )
    for span in spans:
        for method, segment in _segmenters(span, seed).items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OversizedTokenWarning)
                segs = [segment(s) for s in sentences]
            for seg in segs:
                for r in seg.rhesis:
                    assert fits_span(r.text, span) or r.start == r.end, (method, span, r)
            back = align_gold(sentences, parse_gold(render_text(segs)))
            assert [e.gold.spans() for e in back] == [seg.spans() for seg in segs], (method, span)
