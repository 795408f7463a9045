"""Score rows that no segmentation can use: rejected when impossible, counted
when they name an unknown sentence or run past a sentence's end."""

import pytest

from rhesis import FormatError, load_scores, parse_conllu, unmatched_rows
from rhesis import RenderOptions, SpanConfig, render, segment_by_scores
from rhesis.cli import main

from test_cli import CONLLU, SCORES


class TestImpossibleSpans:
    @pytest.mark.parametrize("row", ["s1\t0\t2\t0.5", "s1\t-1\t2\t0.5", "s1\t3\t2\t0.5"])
    def test_rejected_with_the_line_number(self, row):
        with pytest.raises(FormatError, match=r"line 2: span .* not 1 <= start <= end"):
            load_scores(f"s1\t1\t2\t0.5\n{row}\n")

    def test_single_token_span_accepted(self):
        assert load_scores("s1\t2\t2\t0.5\n").get("s1", 2, 2) == 0.5


class TestUnmatchedRows:
    def test_counts_unknown_ids_and_rows_past_the_end(self):
        sentences = parse_conllu(CONLLU)  # s1: 8 tokens, s2: 7 tokens
        table = load_scores(
            "s1\t1\t8\t0.5\ns2\t5\t8\t0.5\ns1\t9\t9\t0.5\ns9\t1\t2\t0.5\ns9\t2\t3\t0.5\n"
        )
        assert unmatched_rows(table, sentences) == (2, 2)

    def test_matching_table_has_none(self):
        assert unmatched_rows(load_scores(SCORES), parse_conllu(CONLLU)) == (0, 0)


class TestSegmentWarning:
    @pytest.fixture(autouse=True)
    def _no_ambient_config(self, monkeypatch):
        monkeypatch.delenv("RHESIS_CONFIG", raising=False)

    def _run(self, tmp_path, capsys, scores):
        conllu = tmp_path / "in.conllu"
        table = tmp_path / "in.scores.tsv"
        conllu.write_text(CONLLU, encoding="utf-8")
        table.write_text(scores, encoding="utf-8")
        code = main(["segment", "--input", str(conllu), "--method", "scores",
                     "--scores", str(table)])
        assert code == 0
        return capsys.readouterr()

    def test_one_line_with_both_counts_and_stdout_unchanged(self, tmp_path, capsys):
        clean = self._run(tmp_path, capsys, SCORES)
        extra = "s7\t1\t2\t0.9\ns2\t6\t9\t0.9\ns2\t8\t8\t0.9\n"
        noisy = self._run(tmp_path, capsys, SCORES + extra)
        assert noisy.out == clean.out
        warnings = [l for l in noisy.err.splitlines() if l.startswith("rhesis: warning:")]
        assert warnings == [
            f"rhesis: warning: --scores {tmp_path / 'in.scores.tsv'}: "
            "1 score rows name no input sentence, "
            "2 end past their sentence's last token"
        ]

    def test_silent_when_every_row_matches(self, tmp_path, capsys):
        assert "warning" not in self._run(tmp_path, capsys, SCORES).err

    def test_chosen_units_without_a_row_are_counted_after_segmenting(self, tmp_path, capsys):
        s1_only = "".join(line + "\n" for line in SCORES.splitlines() if line.startswith("s1\t"))
        table = load_scores(s1_only)
        segs = [segment_by_scores(s, table, SpanConfig()) for s in parse_conllu(CONLLU)]
        unscored = sum(
            table.get(seg.sentence_id, r.start, r.end) is None for seg in segs for r in seg.rhesis
        )
        assert unscored == 1  # s2 fits the span whole: one unit, scored epsilon
        got = self._run(tmp_path, capsys, s1_only)
        assert got.out == render(segs, RenderOptions(format="txt"))
        warnings = [l for l in got.err.splitlines() if l.startswith("rhesis: warning:")]
        assert warnings == [
            f"rhesis: warning: --scores {tmp_path / 'in.scores.tsv'}: "
            "1 chosen units had no score row and scored epsilon"
        ]

    def test_every_count_on_one_line(self, tmp_path, capsys):
        s1_only = "".join(line + "\n" for line in SCORES.splitlines() if line.startswith("s1\t"))
        got = self._run(tmp_path, capsys, s1_only + "s7\t1\t2\t0.9\ns1\t8\t9\t0.9\n")
        warnings = [l for l in got.err.splitlines() if l.startswith("rhesis: warning:")]
        assert warnings == [
            f"rhesis: warning: --scores {tmp_path / 'in.scores.tsv'}: "
            "1 score rows name no input sentence, "
            "1 end past their sentence's last token, "
            "1 chosen units had no score row and scored epsilon"
        ]
