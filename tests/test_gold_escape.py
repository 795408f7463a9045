"""The `.rhz` escape: a rhesis line that begins with `#` or `\\` is written
with one leading `\\`, and reading strips exactly one, so no token text can
turn a rhesis line into a comment or a `#doc` label."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import (
    Sentence,
    Token,
    align_gold,
    parse_gold,
    render_text,
    segmentation_from_cuts,
)
from rhesis.cli import main


def _chain(sent_id, forms, spaced=None):
    """A sentence whose token i + 1 heads token i, the last being the root."""
    n = len(forms)
    tokens = [
        Token(index=i, form=form, upos="X", head=0 if i == n else i + 1,
              deprel="root" if i == n else "dep",
              misc="" if spaced is None or spaced[i - 1] else "SpaceAfter=No")
        for i, form in enumerate(forms, start=1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


def _round_trip(sentences, segs):
    return align_gold(sentences, parse_gold(render_text(segs)))


def test_hashtag_rhesis_round_trips():
    sent = _chain("s1", ["#MeToo", "bien", "sûr"])
    seg = segmentation_from_cuts(sent, (1,))
    text = render_text([seg])
    assert text == "\\#MeToo\nbien sûr\n\n"
    [entry] = _round_trip([sent], [seg]).entries
    assert entry.gold.spans() == seg.spans()


def test_doc_and_backslash_rheses_round_trip():
    sent = _chain("s1", ["#doc", "x", "\\", "#", "y"])
    seg = segmentation_from_cuts(sent, (1, 2, 3))
    assert render_text([seg]).splitlines() == ["\\#doc", "x", "\\\\", "\\# y", ""]
    [entry] = _round_trip([sent], [seg]).entries
    assert entry.gold.spans() == seg.spans()
    assert entry.doc_label == ""


def test_parse_gold_strips_exactly_one_backslash():
    groups = parse_gold("# comment\n#doc d\n\\#a\n\\\\b\n\\\\\\c\nplain\n\n")
    assert groups == [("d", ["#a", "\\b", "\\\\c", "plain"])]


def test_unescaped_lines_are_unchanged():
    sent = _chain("s1", ["Le", "chat", "dort", "."], [True, True, False, True])
    seg = segmentation_from_cuts(sent, (2,))
    assert render_text([seg]) == "Le chat\ndort.\n\n"


def _conllu(forms):
    rows = [
        "\t".join([str(i), form, "_", "X", "_", "_",
                   "0" if i == len(forms) else str(i + 1),
                   "root" if i == len(forms) else "dep", "_", "_"])
        for i, form in enumerate(forms, start=1)
    ]
    return "# sent_id = s1\n" + "\n".join(rows) + "\n\n"


def test_segment_then_eval_accepts_a_hashtag_rhesis(tmp_path):
    conllu = tmp_path / "doc.conllu"
    conllu.write_text(_conllu(["#MeToo", "bien", "sûr"]), encoding="utf-8")
    auto = tmp_path / "auto.rhz"
    gold = tmp_path / "gold.rhz"
    gold.write_text("\\#MeToo\nbien sûr\n\n", encoding="utf-8")
    report = tmp_path / "report.json"
    with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
        assert main(["segment", "--input", str(conllu), "--method", "cascade",
                     "--span", "8", "--out", str(auto)]) == 0
        assert main(["eval", "--auto", str(auto), "--gold", str(gold),
                     "--conllu", str(conllu), "--report", str(report)]) == 0
    assert auto.read_text(encoding="utf-8") == gold.read_text(encoding="utf-8")
    assert json.loads(report.read_text(encoding="utf-8"))["weighted_precision"] == 1.0


PREFIXES = ["#", "#doc", "#doc ", "# ", "\\", "\\\\", "\\#", ""]
# non-blank forms, with spaces inside them and at either edge
FORM = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " "]),
    st.sampled_from(PREFIXES),
    st.text(alphabet="ab#\\ é", min_size=1, max_size=4),
).filter(str.strip)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), forms=st.lists(FORM, min_size=1, max_size=8))
def test_render_parse_align_round_trip(data, forms):
    n = len(forms)
    spaced = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cuts = data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()))
    sent = _chain("s1", forms, spaced)
    seg = segmentation_from_cuts(sent, sorted(cuts))
    [entry] = _round_trip([sent], [seg]).entries
    assert entry.gold.spans() == seg.spans()
    assert entry.doc_label == ""
