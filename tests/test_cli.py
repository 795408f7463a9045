"""End-to-end tests of the command-line interface: in-process via main, and
the declared console command in a child process."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict
from importlib import resources

import pytest

import rhesis
from rhesis import (
    EngineConfig,
    EvoConfig,
    ScoringWeights,
    SpanConfig,
    align_gold,
    document_report,
    effective_config,
    parse_conllu,
    parse_gold,
    read_weights,
    write_weights,
)
from rhesis.cli import main
from rhesis.errors import OversizedTokenWarning

from helpers import relabelled_fixture_gold

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(rhesis.__file__)))


def _row(i, form, upos, head, deprel, misc="_"):
    return "\t".join([str(i), form, form.lower(), upos, "_", "_",
                      str(head), deprel, "_", misc])


CONLLU = "\n".join([
    "# sent_id = s1",
    "# text = Le chat dort profondément dans le salon.",
    _row(1, "Le", "DET", 2, "det"),
    _row(2, "chat", "NOUN", 3, "nsubj"),
    _row(3, "dort", "VERB", 0, "root"),
    _row(4, "profondément", "ADV", 3, "advmod"),
    _row(5, "dans", "ADP", 7, "case"),
    _row(6, "le", "DET", 7, "det"),
    _row(7, "salon", "NOUN", 3, "obl", "SpaceAfter=No"),
    _row(8, ".", "PUNCT", 3, "punct"),
    "",
    "# sent_id = s2",
    "# text = Elle lit, puis elle dort.",
    _row(1, "Elle", "PRON", 2, "nsubj"),
    _row(2, "lit", "VERB", 0, "root", "SpaceAfter=No"),
    _row(3, ",", "PUNCT", 6, "punct"),
    _row(4, "puis", "ADV", 6, "advmod"),
    _row(5, "elle", "PRON", 6, "nsubj"),
    _row(6, "dort", "VERB", 2, "conj", "SpaceAfter=No"),
    _row(7, ".", "PUNCT", 2, "punct"),
    "",
]) + "\n"

GOLD = """\
#doc demo
Le chat dort profondément
dans le salon.

Elle lit,
puis elle dort.
"""

SCORES = "\n".join([
    "s1\t1\t4\t0.99",
    "s1\t5\t8\t0.99",
    "s2\t1\t3\t0.9",
    "s2\t4\t7\t0.9",
]) + "\n"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("RHESIS_CONFIG", raising=False)


@pytest.fixture
def data(tmp_path):
    paths = {
        "conllu": tmp_path / "demo.conllu",
        "gold": tmp_path / "demo.rhz",
        "scores": tmp_path / "demo.scores.tsv",
        "weights": tmp_path / "weights.json",
    }
    paths["conllu"].write_text(CONLLU, encoding="utf-8")
    paths["gold"].write_text(GOLD, encoding="utf-8")
    paths["scores"].write_text(SCORES, encoding="utf-8")
    write_weights(paths["weights"], ScoringWeights(w_dep=1.0, w_count=0.2))
    return {k: str(v) for k, v in paths.items()}


def _config_line_from(err: str) -> dict:
    lines = [l for l in err.splitlines() if l.startswith("# effective-config ")]
    assert len(lines) == 1
    return json.loads(lines[0].removeprefix("# effective-config "))


def _config_line(capsys) -> dict:
    return _config_line_from(capsys.readouterr().err)


class TestSegment:
    def test_cascade_text_output(self, data, capsys):
        code = main(["segment", "--input", data["conllu"], "--method", "cascade"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (
            "Le chat dort profondément dans le salon.\n\n"
            "Elle lit, puis elle dort.\n\n"
        )

    def test_effective_config_echoed_once_as_json(self, data, capsys):
        main(["segment", "--input", data["conllu"], "--method", "cascade"])
        header = _config_line(capsys)
        assert header["command"] == "segment"
        assert header["config"]["span"]["max_chars"] == 45

    def test_span_override_bounds_every_line(self, data, capsys):
        code = main(["segment", "--input", data["conllu"], "--method", "cascade",
                     "--span", "20"])
        assert code == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l]
        assert lines and all(len(l) <= 20 for l in lines)
        assert _config_line_from(captured.err)["config"]["span"]["max_chars"] == 20

    def test_tree_method(self, data, capsys):
        code = main(["segment", "--input", data["conllu"], "--method", "tree",
                     "--weights", data["weights"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "salon." in out

    def test_scores_method_recovers_the_scored_spans(self, data, capsys):
        code = main(["segment", "--input", data["conllu"], "--method", "scores",
                     "--scores", data["scores"]])
        assert code == 0
        assert capsys.readouterr().out == (
            "Le chat dort profondément\ndans le salon.\n\n"
            "Elle lit,\npuis elle dort.\n\n"
        )

    def test_records_format(self, data, capsys):
        main(["segment", "--input", data["conllu"], "--method", "cascade",
              "--format", "records"])
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert records[0]["sentence_id"] == "s1"
        assert records[0]["start"] == 1

    def test_html_format_includes_ids(self, data, capsys):
        main(["segment", "--input", data["conllu"], "--method", "cascade",
              "--format", "html"])
        out = capsys.readouterr().out
        assert 'id="s1-r1"' in out
        assert '<p class="rhesis-sentence">' in out

    def test_out_file_and_reruns_byte_identical(self, data, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            code = main(["segment", "--input", data["conllu"], "--method", "tree",
                         "--weights", data["weights"], "--out", str(out)])
            assert code == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes()  # nonempty


class TestUsageErrors:
    def test_tree_without_weights(self, data, capsys):
        assert main(["segment", "--input", data["conllu"], "--method", "tree"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_scores_without_scores(self, data, capsys):
        assert main(["segment", "--input", data["conllu"], "--method", "scores"]) == 1
        assert "requires --scores" in capsys.readouterr().err

    def test_unknown_flag(self, data, capsys):
        assert main(["segment", "--input", data["conllu"], "--method", "cascade",
                     "--loud"]) == 1
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_bad_method_choice(self, data, capsys):
        assert main(["segment", "--input", data["conllu"], "--method", "magic"]) == 1
        capsys.readouterr()


class TestDataErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["segment", "--input", str(tmp_path / "ghost.conllu"),
                     "--method", "cascade"])
        assert code == 2
        assert "rhesis: error" in capsys.readouterr().err

    def test_malformed_conllu(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("1\tonly\tthree\n", encoding="utf-8")
        assert main(["segment", "--input", str(bad), "--method", "cascade"]) == 2
        capsys.readouterr()

    def test_whitespace_only_form(self, tmp_path, capsys):
        # segmented, the form " " would be a rhesis line that reads back as a sentence break
        bad = tmp_path / "blank.conllu"
        bad.write_text(
            _row(1, "ab", "NOUN", 0, "root") + "\n" + _row(2, " ", "X", 1, "dep") + "\n"
            + _row(3, "cd", "NOUN", 1, "dep") + "\n",
            encoding="utf-8",
        )
        code = main(["segment", "--input", str(bad), "--method", "cascade", "--span", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "line 2" in captured.err

    def test_gold_that_does_not_match_the_text(self, data, tmp_path, capsys):
        wrong = tmp_path / "wrong.rhz"
        wrong.write_text("Un texte entièrement différent.\n", encoding="utf-8")
        code = main(["eval", "--auto", str(wrong), "--gold", data["gold"],
                     "--conllu", data["conllu"]])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("table", ["[]", '"conj"'], ids=["list", "string"])
    def test_weight_file_whose_deprel_table_is_not_an_object(self, data, tmp_path, table, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"w_dep": 1.0, "deprel_weights": {table}}}', encoding="utf-8")
        code = main(["segment", "--input", data["conllu"], "--method", "tree",
                     "--weights", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (f"rhesis: error: --weights {bad}: bad weight file: deprel_weights must be a mapping"
                in captured.err)

    def test_malformed_config(self, data, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[span]\nmax_chars = many\n", encoding="utf-8")
        code = main(["segment", "--input", data["conllu"], "--method", "cascade",
                     "--config", str(cfg)])
        assert code == 2
        assert "rhesis: error" in capsys.readouterr().err


# Each command's data inputs: (option, kind of file).
_INPUTS = {
    "segment": [("--input", "conllu")],
    "tune": [("--conllu", "conllu"), ("--gold", "rhz")],
    "eval": [("--conllu", "conllu"), ("--auto", "rhz"), ("--gold", "rhz")],
    "export-dataset": [("--conllu", "conllu"), ("--gold", "rhz")],
    "stats": [("--conllu", "conllu"), ("--rhz", "rhz")],
}


def _argv(command, data, tmp_path, option, path):
    """A run of ``command`` on the demo data with ``option`` reading ``path``."""
    argv = {
        "segment": ["segment", "--input", data["conllu"], "--method", "cascade"],
        "tune": ["tune", "--conllu", data["conllu"], "--gold", data["gold"],
                 "--out", str(tmp_path / "w.json")],
        "eval": ["eval", "--auto", data["gold"], "--gold", data["gold"],
                 "--conllu", data["conllu"]],
        "export-dataset": ["export-dataset", "--conllu", data["conllu"], "--gold", data["gold"],
                           "--out", str(tmp_path / "c.tsv")],
        "stats": ["stats", "--rhz", data["gold"], "--conllu", data["conllu"]],
    }[command]
    argv[argv.index(option) + 1] = path
    return argv


class TestNamedInputs:
    """A data error in a CoNLL-U or ``.rhz`` input names its option and its file."""

    @pytest.mark.parametrize(
        "command, option, kind",
        [(command, option, kind) for command, inputs in _INPUTS.items() for option, kind in inputs],
    )
    def test_a_malformed_file_is_named(self, command, option, kind, data, tmp_path, capsys):
        bad = tmp_path / f"bad.{kind}"
        bad.write_text("1\tonly\tthree\n" if kind == "conllu" else "#doc\nfoo\n", encoding="utf-8")
        code = main(_argv(command, data, tmp_path, option, str(bad)))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = ("line 1: expected 10 tab-separated columns, got 3" if kind == "conllu"
                   else "line 1: malformed #doc line (need '#doc <label>')")
        assert captured.err.splitlines()[-1] == f"rhesis: error: {option} {bad}: {message}"

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, inputs in _INPUTS.items()
         for option, kind in inputs if kind == "rhz"],
    )
    def test_a_segmentation_of_other_sentences_is_named(
        self, command, option, data, tmp_path, capsys
    ):
        one = tmp_path / "one.rhz"
        one.write_text("Le chat dort profondément dans le salon.\n", encoding="utf-8")
        code = main(_argv(command, data, tmp_path, option, str(one)))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == (
            f"rhesis: error: {option} {one}: sentence count mismatch: 2 parsed vs 1 segmented"
        )

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b'{"w_dep": 1.0', "weight file is not valid JSON: "
             "Expecting ',' delimiter: line 1 column 14 (char 13)"),
            (b"\xff{}", "not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte"),
        ],
        ids=["json", "utf8"],
    )
    def test_a_malformed_weight_file_is_named(self, payload, message, data, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        code = main(["segment", "--input", data["conllu"], "--method", "tree",
                     "--weights", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"rhesis: error: --weights {bad}: {message}"

    def test_a_malformed_score_table_is_named(self, data, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("s1\t1\n", encoding="utf-8")
        code = main(["segment", "--input", data["conllu"], "--method", "scores",
                     "--scores", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"rhesis: error: --scores {bad}: line 1: expected 4 tab-separated fields, got 2"
        )

    @pytest.mark.parametrize("command", _INPUTS)
    @pytest.mark.parametrize("from_env", [False, True], ids=["option", "env"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[tree]\nw_dep = 1\n", "unknown keys in [tree]: ['w_dep']"),
            ("[span]\nmax_chars = many\n", "[span] max_chars must be an integer, got 'many'"),
        ],
        ids=["key", "number"],
    )
    def test_a_malformed_config_is_named(
        self, command, from_env, text, message, data, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        option, kind = _INPUTS[command][0]  # every command's first input is the CoNLL-U
        argv = _argv(command, data, tmp_path, option, data[kind])
        if from_env:
            monkeypatch.setenv("RHESIS_CONFIG", str(cfg))
        else:
            argv += ["--config", str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"rhesis: error: config {cfg}: {message}"]


FIXTURE = resources.files("rhesis").joinpath("data", "fixture.conllu")


def _cascade_on_the_fixture_with_span_3() -> int:
    with resources.as_file(FIXTURE) as conllu:
        return main(["segment", "--input", str(conllu), "--method", "cascade", "--span", "3"])


class TestWarnings:
    def test_oversized_units_print_as_rhesis_warnings(self, capsys):
        assert _cascade_on_the_fixture_with_span_3() == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("# effective-config ")
        assert len(err) > 1
        for line in err[1:]:
            assert line.startswith(f"rhesis: warning: --input {FIXTURE}: sentence 'conte")
            assert line.endswith(" exceeds the span and cannot be split further")
            assert ".py:" not in line and "OversizedTokenWarning" not in line

    def test_duplicate_score_rows_print_as_a_rhesis_warning(self, data, tmp_path, capsys):
        scores = tmp_path / "dup.tsv"
        scores.write_text("s1\t1\t4\t0.5\n" + SCORES, encoding="utf-8")
        code = main(["segment", "--input", data["conllu"], "--method", "scores",
                     "--scores", str(scores)])
        assert code == 0
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"rhesis: warning: --scores {scores}: 1 duplicate score rows (the first on line 2),"
            " keeping the last"
        ]

    def test_the_callers_filters_apply_and_its_hook_comes_back(self, capsys):
        hook = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OversizedTokenWarning)
            assert _cascade_on_the_fixture_with_span_3() == 0
        assert warnings.showwarning is hook
        assert len(capsys.readouterr().err.splitlines()) == 1  # the echo alone
        with warnings.catch_warnings():
            warnings.simplefilter("error", OversizedTokenWarning)
            assert _cascade_on_the_fixture_with_span_3() == 2
        assert warnings.showwarning is hook
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == [
            f"rhesis: error: --input {FIXTURE}: sentence 'conte1-s01': 'petit' exceeds the span"
            " and cannot be split further"
        ]

    def _scores_naming_an_unknown_sentence(self, data, tmp_path, action):
        scores = tmp_path / "extra.tsv"
        scores.write_text(SCORES + "s7\t1\t2\t0.9\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            code = main(["segment", "--input", data["conllu"], "--method", "scores",
                         "--scores", str(scores), "--out", str(out)])
        return code, out

    def test_the_score_coverage_warning_obeys_ignore(self, data, tmp_path, capsys):
        code, out = self._scores_naming_an_unknown_sentence(data, tmp_path, "ignore")
        assert code == 0 and out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("# effective-config ")

    def test_the_score_coverage_warning_as_an_error_is_a_data_error(self, data, tmp_path, capsys):
        code, out = self._scores_naming_an_unknown_sentence(data, tmp_path, "error")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"rhesis: error: --scores {tmp_path / 'extra.tsv'}: "
            "1 score rows name no input sentence, "
            "0 end past their sentence's last token"
        ]


class TestNamedWarnings:
    """Every warning line names the one input it concerns, under the caller's filters."""

    def _case(self, kind, data, tmp_path):
        """(argv without --out, the option and file the warning names, its message)."""
        argv = ["segment", "--input", data["conllu"]]
        if kind == "oversized":
            return (argv + ["--method", "cascade", "--span", "8"], f"--input {data['conllu']}",
                    "sentence 's1': 'profondément' exceeds the span and cannot be split further")
        scores = tmp_path / f"{kind}.tsv"
        if kind == "duplicate":
            scores.write_text("s1\t1\t4\t0.5\n" + SCORES, encoding="utf-8")
            message = "1 duplicate score rows (the first on line 2), keeping the last"
        else:
            scores.write_text(SCORES + "s7\t1\t2\t0.9\n", encoding="utf-8")
            message = ("1 score rows name no input sentence, "
                       "0 end past their sentence's last token")
        return argv + ["--method", "scores", "--scores", str(scores)], f"--scores {scores}", message

    @pytest.mark.parametrize("kind", ["oversized", "duplicate", "coverage"])
    def test_one_named_line_that_obeys_the_filters(self, kind, data, tmp_path, capsys):
        argv, name, message = self._case(kind, data, tmp_path)
        hook = warnings.showwarning
        for action, code, lines in [
            ("default", 0, [f"rhesis: warning: {name}: {message}"]),
            ("ignore", 0, []),
            ("error", 2, [f"rhesis: error: {name}: {message}"]),
        ]:
            out = tmp_path / f"{action}.txt"
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(argv + ["--out", str(out)]) == code
            assert warnings.showwarning is hook
            assert out.exists() == (code == 0)
            assert capsys.readouterr().err.splitlines()[1:] == lines


class TestEmptyInput:
    @pytest.fixture(params=["", "# newdoc id = d1\n\n"], ids=["empty", "comments"])
    def empty(self, request, tmp_path):
        path = tmp_path / "empty.conllu"
        path.write_text(request.param, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["tune", "eval", "export-dataset", "stats"])
    def test_a_conllu_without_sentences_is_a_named_error(
        self, command, empty, data, tmp_path, capsys
    ):
        code = main(_argv(command, data, tmp_path, "--conllu", empty))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines()[1:] == [f"rhesis: error: --conllu {empty}: no sentences"]
        inputs = {os.path.basename(empty), *map(os.path.basename, data.values())}
        assert {p.name for p in tmp_path.iterdir()} == inputs  # no output written

    def test_segment_writes_nothing_for_no_sentences(self, empty, data, tmp_path, capsys):
        assert main(_argv("segment", data, tmp_path, "--input", empty)) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1  # the echo alone


class TestConfigPlumbing:
    def test_env_variable_supplies_the_config(self, data, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "env.ini"
        cfg.write_text("[span]\nmax_chars = 21\ntarget_chars = 14\n", encoding="utf-8")
        monkeypatch.setenv("RHESIS_CONFIG", str(cfg))
        code = main(["segment", "--input", data["conllu"], "--method", "cascade"])
        assert code == 0
        assert _config_line(capsys)["config"]["span"]["max_chars"] == 21

    def test_config_flag_wins_over_env(self, data, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RHESIS_CONFIG", str(tmp_path / "absent.ini"))
        cfg = tmp_path / "real.ini"
        cfg.write_text("[span]\nmax_chars = 30\ntarget_chars = 22\n", encoding="utf-8")
        code = main(["segment", "--input", data["conllu"], "--method", "cascade",
                     "--config", str(cfg)])
        assert code == 0
        assert _config_line(capsys)["config"]["span"]["max_chars"] == 30

    @pytest.mark.parametrize("text, named", [
        ("[tree]\nw_dep = 1\n", "w_dep"),
        ("[tree.deprel_weights]\nconj = 0.9\n", "tree.deprel_weights"),
    ], ids=["weight-key", "deprel-section"])
    def test_tree_weights_in_a_config_are_a_data_error(self, data, tmp_path, capsys, text, named):
        cfg = tmp_path / "weights.ini"
        cfg.write_text(text, encoding="utf-8")
        code = main(["segment", "--input", data["conllu"], "--method", "tree",
                     "--weights", data["weights"], "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("rhesis: error: ") and named in err
        assert "# effective-config" not in err

    def test_a_tree_run_echoes_only_score_epsilon_under_tree(self, data, capsys):
        code = main(["segment", "--input", data["conllu"], "--method", "tree",
                     "--weights", data["weights"]])
        assert code == 0
        assert _config_line(capsys)["config"]["tree"] == {"score_epsilon": 0.01}


# The command and its overrides, then the [span] and the [evo] changes the echo
# must show over a config of [evo] population 8, generations 2 and seed 7.
_OVERRIDES = {
    "segment-span": (["segment", "--method", "cascade", "--span", "20"],
                     SpanConfig(max_chars=20, target_chars=20), {}),
    "tune-seed-generations": (["tune", "--seed", "5", "--generations", "1"],
                              SpanConfig(), {"seed": 5, "generations": 1}),
    "tune-seed-0": (["tune", "--seed", "0"], SpanConfig(), {"seed": 0}),
    "tune-neither": (["tune"], SpanConfig(), {}),
    "export-seed": (["export-dataset", "--seed", "3"], SpanConfig(), {}),
}


@pytest.mark.parametrize("argv, span, evo", _OVERRIDES.values(), ids=_OVERRIDES)
def test_each_command_overrides_only_its_own_settings(argv, span, evo, data, tmp_path, capsys):
    cfg = tmp_path / "evo.ini"
    cfg.write_text("[evo]\npopulation = 8\ngenerations = 2\nseed = 7\n", encoding="utf-8")
    inputs = {
        "segment": ["--input", data["conllu"]],
        "tune": ["--conllu", data["conllu"], "--gold", data["gold"]],
        "export-dataset": ["--conllu", data["conllu"], "--gold", data["gold"]],
    }[argv[0]]
    out = [] if argv[0] == "segment" else ["--out", str(tmp_path / "out")]
    assert main([*argv, *inputs, *out, "--config", str(cfg)]) == 0
    expected = EngineConfig(
        span=span, evo=EvoConfig(**{"population": 8, "generations": 2, "seed": 7, **evo})
    )
    assert _config_line(capsys) == {"command": argv[0], "config": effective_config(expected)}


class TestTune:
    def _config(self, tmp_path):
        cfg = tmp_path / "evo.ini"
        cfg.write_text("[evo]\npopulation = 8\ngenerations = 2\n", encoding="utf-8")
        return str(cfg)

    def test_writes_weights_and_manifest(self, data, tmp_path, capsys):
        out = tmp_path / "tuned.json"
        code = main(["tune", "--conllu", data["conllu"], "--gold", data["gold"],
                     "--config", self._config(tmp_path), "--seed", "5",
                     "--generations", "3", "--out", str(out)])
        assert code == 0
        weights = read_weights(out)
        assert weights.w_dep >= 0.0
        manifest = json.loads((tmp_path / "tuned.json.manifest.json").read_text())
        assert set(manifest) == {"seed", "config", "span", "labels", "trace"}
        assert manifest["seed"] == 5
        assert manifest["config"]["generations"] == 3
        assert len(manifest["trace"]) == 4
        assert manifest["labels"] == sorted(manifest["labels"])
        assert "best fitness" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_a_non_finite_mutation_sigma_is_refused(self, sigma, data, tmp_path, capsys):
        cfg = tmp_path / "evo.ini"
        cfg.write_text(f"[evo]\nmutation_sigma = {sigma}\n", encoding="utf-8")
        out = tmp_path / "tuned.json"
        code = main(["tune", "--conllu", data["conllu"], "--gold", data["gold"],
                     "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"rhesis: error: config {cfg}: mutation_sigma must be positive and finite"
        ]
        assert not out.exists()

    def test_a_negative_seed_fails_before_the_echo(self, data, tmp_path, capsys):
        code = main(["tune", "--conllu", data["conllu"], "--gold", data["gold"],
                     "--seed", "-1", "--out", str(tmp_path / "tuned.json")])
        assert code == 2
        assert capsys.readouterr().err == "rhesis: error: --seed -1: seed must be >= 0\n"
        assert not (tmp_path / "tuned.json").exists()

    def test_same_seed_rewrites_identical_bytes(self, data, tmp_path, capsys):
        args = ["tune", "--conllu", data["conllu"], "--gold", data["gold"],
                "--config", self._config(tmp_path), "--seed", "11"]
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_the_best_fitness_is_the_eval_headline_of_the_tuned_weights(self, tmp_path, capsys):
        # the bundled gold holds two documents, so a corpus-wide ratio would differ here
        fixture = resources.files("rhesis").joinpath("data")
        conllu, gold, weights, auto, report = (tmp_path / name for name in (
            "fixture.conllu", "fixture.rhz", "tuned.json", "auto.rhz", "report.json"))
        conllu.write_bytes(fixture.joinpath("fixture.conllu").read_bytes())
        gold.write_bytes(fixture.joinpath("fixture.rhz").read_bytes())
        assert main(["tune", "--conllu", str(conllu), "--gold", str(gold),
                     "--out", str(weights)]) == 0
        assert main(["segment", "--input", str(conllu), "--method", "tree",
                     "--weights", str(weights), "--out", str(auto)]) == 0
        assert main(["eval", "--auto", str(auto), "--gold", str(gold), "--conllu", str(conllu),
                     "--report", str(report)]) == 0
        capsys.readouterr()
        trace = json.loads((tmp_path / "tuned.json.manifest.json").read_text())["trace"]
        assert json.loads(report.read_text())["weighted_precision"] == trace[-1]


class TestEval:
    def test_perfect_agreement(self, data, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["eval", "--auto", data["gold"], "--gold", data["gold"],
                     "--conllu", data["conllu"], "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted avg" in out
        assert "demo" in out
        payload = json.loads(report_path.read_text())
        assert payload["weighted_precision"] == 1.0
        assert payload["per_doc"][0]["label"] == "demo"
        assert payload["per_doc"][0]["rhesis_count"] == 4

    def test_partial_agreement(self, data, tmp_path, capsys):
        auto = tmp_path / "auto.rhz"
        auto.write_text(
            "#doc demo\n"
            "Le chat dort profondément\ndans le salon.\n\n"
            "Elle lit, puis elle dort.\n",
            encoding="utf-8",
        )
        code = main(["eval", "--auto", str(auto), "--gold", data["gold"],
                     "--conllu", data["conllu"]])
        assert code == 0
        capsys.readouterr()

    def test_repeated_and_missing_labels_report_as_document_report(self, tmp_path, capsys):
        conllu, auto, gold, report = (tmp_path / name for name in
                                      ("fixture.conllu", "auto.rhz", "mixed.rhz", "report.json"))
        conllu.write_bytes(resources.files("rhesis").joinpath("data", "fixture.conllu").read_bytes())
        gold.write_text(relabelled_fixture_gold(), encoding="utf-8")
        assert main(["segment", "--input", str(conllu), "--method", "cascade",
                     "--out", str(auto)]) == 0
        capsys.readouterr()
        code = main(["eval", "--auto", str(auto), "--gold", str(gold), "--conllu", str(conllu),
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[2:5]] == ["-", "B", "A"]
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert [row["label"] for row in payload["per_doc"]] == ["-", "B", "A"]
        sentences = parse_conllu(conllu.read_bytes())
        expected = document_report(
            [entry.gold for entry in align_gold(sentences, parse_gold(auto.read_bytes()))],
            align_gold(sentences, parse_gold(gold.read_bytes())),
        )
        text = json.dumps(asdict(expected), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert report.read_bytes() == text.encode("utf-8")


class TestExportDataset:
    def test_tsv_and_manifest(self, data, tmp_path, capsys):
        out = tmp_path / "candidates.tsv"
        code = main(["export-dataset", "--conllu", data["conllu"],
                     "--gold", data["gold"], "--negatives", "2", "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("sentence_id\t")
        assert len(lines) > 1
        manifest = json.loads((tmp_path / "candidates.tsv.manifest.json").read_text())
        assert manifest["max_seq_length"] == 48
        assert manifest["batch_size"] == 16
        assert manifest["learning_rate"] == 2e-5
        assert manifest["epochs"] == 3
        assert manifest["negatives_per_positive"] == 2
        assert manifest["examples"]["positive"] == 4
        assert "examples ->" in capsys.readouterr().err

    def test_a_negative_seed_writes_no_file(self, data, tmp_path, capsys):
        # random.Random seeds with the absolute value, so -1 would export what 1 does
        out = tmp_path / "candidates.tsv"
        code = main(["export-dataset", "--conllu", data["conllu"],
                     "--gold", data["gold"], "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "rhesis: error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "candidates.tsv.manifest.json").exists()

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("# sent_id = s1", "# sent_id = a\tb", "sentence id 'a\\tb' holds"),
            ("# sent_id = s1", "# sent_id = a\rb", "sentence id 'a\\rb' holds"),
            ("chat", "mar\rché", "sentence 's1': its text holds"),
            ("lit", "lit\r", "sentence 's2': its text holds"),
        ],
        ids=["tab", "cr", "cr-in-form", "cr-ending-form"],
    )
    def test_a_sentence_id_that_would_spoil_its_rows_writes_no_file(
        self, tmp_path, old, new, error, capsys
    ):
        # a CR inside a form (not before a line end) is kept by the reader and
        # by the gold lines, so the sentence aligns and reaches the export
        conllu = tmp_path / "odd.conllu"
        conllu.write_text(CONLLU.replace(old, new), encoding="utf-8")
        gold = tmp_path / "odd.rhz"
        gold.write_text(GOLD.replace(old, new), encoding="utf-8")
        out = tmp_path / "candidates.tsv"
        code = main(["export-dataset", "--conllu", str(conllu), "--gold", str(gold),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"rhesis: error: --conllu {conllu}: {error} a tab or a line break" in err
        assert not out.exists()
        assert not (tmp_path / "candidates.tsv.manifest.json").exists()


class TestStats:
    def test_length_table(self, data, capsys):
        code = main(["stats", "--rhz", data["gold"], "--conllu", data["conllu"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "rhesis count      4" in out
        assert "chars mean / std" in out


def _script_target() -> tuple[str, str]:
    """The ``module:function`` that ``[project.scripts]`` declares for rhesis."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rhesis"]
    module, _, function = target.partition(":")
    return module.strip(), function.strip()


def _run_entry_point(*argv: str) -> subprocess.CompletedProcess:
    """Run the declared console command in a child interpreter.

    The child does what the setuptools-generated script does (import the
    target, exit with its return value), with ``PYTHONPATH`` led by the
    directory this process imported ``rhesis`` from, so it runs the same code.
    """
    module, function = _script_target()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestInstalledScript:
    def test_console_entry_point(self, data):
        proc = _run_entry_point(
            "segment", "--input", data["conllu"], "--method", "cascade")
        assert proc.returncode == 0, proc.stderr
        assert "Le chat dort" in proc.stdout
        assert "# effective-config" in proc.stderr

    def test_console_entry_point_usage_error_exit_status(self, data):
        proc = _run_entry_point(
            "segment", "--input", data["conllu"], "--method", "tree")
        assert proc.returncode == 1, proc.stderr
        assert "--method tree requires --weights" in proc.stderr

    @pytest.mark.skipif(shutil.which("rhesis") is None,
                        reason="rhesis console script not installed on PATH")
    def test_installed_console_script(self, data):
        exe = shutil.which("rhesis")
        assert exe, "the rhesis console script should be on PATH"
        proc = subprocess.run(
            [exe, "segment", "--input", data["conllu"], "--method", "cascade"],
            capture_output=True, text=True, env=dict(os.environ),
            timeout=60,
        )
        assert proc.returncode == 0
        assert "Le chat dort" in proc.stdout
        assert "# effective-config" in proc.stderr

    def test_python_dash_m_runs_the_cli(self, data, tmp_path):
        """``python -m rhesis tune`` and ``python -m rhesis.cli tune`` write the
        weight file ``main`` writes."""
        args = ["tune", "--conllu", data["conllu"], "--gold", data["gold"], "--generations", "2"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
        ))
        assert main([*args, "--out", str(tmp_path / "main.json")]) == 0
        for module in ("rhesis", "rhesis.cli"):
            child = tmp_path / f"{module}.json"
            proc = subprocess.run(
                [sys.executable, "-m", module, *args, "--out", str(child)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, (module, proc.stderr)
            assert child.read_bytes() == (tmp_path / "main.json").read_bytes(), module


@pytest.mark.parametrize("argv, handler", [
    (["segment", "--input", "x", "--method", "cascade"], "_cmd_segment"),
    (["tune", "--conllu", "x", "--gold", "y", "--out", "z"], "_cmd_tune"),
    (["eval", "--auto", "x", "--gold", "y", "--conllu", "z"], "_cmd_eval"),
    (["export-dataset", "--conllu", "x", "--gold", "y", "--out", "z"], "_cmd_export"),
    (["stats", "--rhz", "x", "--conllu", "y"], "_cmd_stats"),
])
def test_every_subcommand_names_its_handler(argv, handler):
    from rhesis import cli

    assert cli._build_parser().parse_args(argv).run is getattr(cli, handler)


def test_one_parser_per_process_gives_the_runs_of_fresh_parsers(data, capsys):
    """A usage error, then the same segment twice: shared and fresh parsers agree."""
    from rhesis.cli import _build_parser

    segment = ["segment", "--input", data["conllu"], "--method", "cascade"]
    calls = [["segment", "--input", data["conllu"], "--method", "nope"], segment, segment]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append((main(argv), *capsys.readouterr()))
    _build_parser.cache_clear()
    shared = [(main(argv), *capsys.readouterr()) for argv in calls]
    assert _build_parser() is _build_parser()
    assert [code for code, _, _ in fresh] == [1, 0, 0]
    assert "usage error" in fresh[0][2]
    assert shared == fresh


# SHA-256 of `segment --method tree` stdout on the bundled fixture with the
# README's example [tree] weights, per span setting.  A faster tree path must
# reproduce these bytes exactly.
_PINNED_TREE_SEGMENTS = [
    ([], "4a93c2dc8a3542fa51134f1e6c69687e2670cab7c83c4ec14c42d41e25ac171e"),
    (["--span", "20"], "054cead781024292f53266783f8f3edf4a585cc765c91cefb7af95abae4c4695"),
    ("[span]\nmax_chars = 6\ntarget_chars = 3\ncount_mode = words\n",
     "b4dba2cc5551f02efcdccf40a60c5869deb01e686bd32ba37f93c2e76d333c61"),
]


@pytest.mark.parametrize(
    "setting, digest", _PINNED_TREE_SEGMENTS, ids=["default", "span20", "words6"]
)
def test_fixture_tree_segment_is_byte_identical(setting, digest, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    write_weights(weights, ScoringWeights(
        w_dep=1.0, w_count=0.1, w_balance=0.05,
        deprel_weights={"conj": 0.9, "advcl": 0.8, "det": -0.8, "acl:relcl": 0.35},
    ))
    extra = setting
    if isinstance(setting, str):
        config = tmp_path / "words.ini"
        config.write_text(setting, encoding="utf-8")
        extra = ["--config", str(config)]
    fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
    with resources.as_file(fixture) as conllu:
        code = main(["segment", "--input", str(conllu), "--method", "tree",
                     "--weights", str(weights), *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the `export-dataset` TSV followed by its manifest on the bundled
# fixture and gold, per setting.  export-dataset has no --span option, so the
# span 20 setting comes from a config file; with 9 negatives per positive it
# runs some one-boundary pools dry and draws from the fallback pool.
_PINNED_EXPORTS = [
    ([], None, "2f934bb8c5363b3c2b24738df030d92abb72f9ad4b7cbeec0c64300c56a42acb"),
    (["--negatives", "0"], None,
     "3e7961aca5d294691a1768f3090e9b9fb8a146d989f7bfe0b2ce23d5aec6fce4"),
    (["--negatives", "9", "--seed", "3"], "[span]\nmax_chars = 20\n",
     "61f09f4e219d182016ed44065be24cbb53663ad91177d69acbd85d40a2093e6d"),
    ([], "[span]\nmax_chars = 6\ntarget_chars = 3\ncount_mode = words\n",
     "7ba36940401a659106dc4e1981d1900336c2289052b2051f197b02a64f3fbf12"),
]


@pytest.mark.parametrize(
    "argv, config, digest", _PINNED_EXPORTS, ids=["default", "none", "span20", "words6"]
)
def test_fixture_export_is_byte_identical(argv, config, digest, tmp_path, capsys):
    out = tmp_path / "candidates.tsv"
    if config is not None:
        (tmp_path / "span.ini").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "span.ini")]
    data = resources.files("rhesis").joinpath("data")
    with resources.as_file(data.joinpath("fixture.conllu")) as conllu, \
            resources.as_file(data.joinpath("fixture.rhz")) as gold:
        code = main(["export-dataset", "--conllu", str(conllu), "--gold", str(gold),
                     *argv, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    written = out.read_bytes() + (tmp_path / "candidates.tsv.manifest.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest
