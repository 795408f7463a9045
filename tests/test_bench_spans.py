"""The benchmark's traced layer names resolve, and the CLI still reaches them.

``bench/spans.py`` traces the library from outside by ``(module, function)``
name.  A refactor that renames a layer, or stops the CLI from calling it,
would silently drop that layer's metrics; these tests catch it in tier-1.
The module is executed from its source, so nothing is written under
``bench/``.
"""

import importlib
import types
from importlib import resources
from pathlib import Path

import pytest

from rhesis import ScoringWeights, parse_conllu, write_weights
from rhesis.cli import main

from helpers import relabelled_fixture_gold

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PY)
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_a_callable_of_rhesis():
    spans = _spans_module()
    assert spans.TRACED
    for module_name, fname in spans.TRACED:
        module = importlib.import_module(f"rhesis.{module_name}")
        assert callable(getattr(module, fname, None)), f"rhesis.{module_name}.{fname}"


def test_cascade_cli_reaches_both_cascade_layers_once_per_sentence(capsys):
    spans = _spans_module()
    fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
    n_sentences = len(parse_conllu(fixture.read_bytes()))
    recorder = spans.Recorder()
    with resources.as_file(fixture) as path, spans.traced_cli(recorder):
        code = main(["segment", "--input", str(path), "--method", "cascade"])
    capsys.readouterr()
    assert code == 0
    names = [s["name"] for s in recorder.spans]
    assert names.count("cascade.cascade_segment") == n_sentences
    assert names.count("cascade.regroup") == n_sentences


def test_eval_cli_reaches_align_gold_twice_per_call(capsys):
    spans = _spans_module()
    recorder = spans.Recorder()
    conllu = resources.files("rhesis").joinpath("data", "fixture.conllu")
    gold = resources.files("rhesis").joinpath("data", "fixture.rhz")
    with resources.as_file(conllu) as conllu_path, resources.as_file(gold) as gold_path:
        with spans.traced_cli(recorder):
            code = main(["eval", "--auto", str(gold_path), "--gold", str(gold_path),
                         "--conllu", str(conllu_path)])
    capsys.readouterr()
    assert code == 0
    assert [s["name"] for s in recorder.spans].count("corpus.align_gold") == 2


@pytest.mark.parametrize(
    "relabel, doc_lines, documents",
    [(False, 2, 2), (True, 4, 3)],  # conte-1, conte-2; (none, B, A, B, A) makes -, B, A
    ids=["fixture", "mixed"],
)
def test_eval_cli_reaches_both_metrics_once_per_document(
    relabel, doc_lines, documents, tmp_path, capsys
):
    spans = _spans_module()
    recorder = spans.Recorder()
    conllu = resources.files("rhesis").joinpath("data", "fixture.conllu")
    fixture_gold = resources.files("rhesis").joinpath("data", "fixture.rhz")
    text = relabelled_fixture_gold() if relabel else fixture_gold.read_text(encoding="utf-8")
    assert sum(line.startswith("#doc ") for line in text.splitlines()) == doc_lines
    gold_path = tmp_path / "gold.rhz"
    gold_path.write_text(text, encoding="utf-8")
    with resources.as_file(conllu) as conllu_path, spans.traced_cli(recorder):
        code = main(["eval", "--auto", str(gold_path), "--gold", str(gold_path),
                     "--conllu", str(conllu_path)])
    capsys.readouterr()
    assert code == 0
    names = [s["name"] for s in recorder.spans]
    assert names.count("evaluate.rhesis_precision") == documents
    assert names.count("evaluate.boundary_prf") == documents


@pytest.mark.parametrize(
    "method, layer", [("tree", "scoring.segment_best"), ("scores", "dataset.segment_by_scores")]
)
def test_dp_cli_reaches_its_segmenter_once_per_sentence(method, layer, tmp_path, capsys):
    spans = _spans_module()
    fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
    sentences = parse_conllu(fixture.read_bytes())
    weights = tmp_path / "weights.json"
    write_weights(weights, ScoringWeights())
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(f"{s.sent_id}\t1\t{len(s)}\t0.9\n" for s in sentences),
                      encoding="utf-8")
    recorder = spans.Recorder()
    with resources.as_file(fixture) as path, spans.traced_cli(recorder):
        code = main(["segment", "--input", str(path), "--method", method,
                     "--weights", str(weights), "--scores", str(scores)])
    capsys.readouterr()
    assert code == 0
    assert [s["name"] for s in recorder.spans].count(layer) == len(sentences)



@pytest.mark.parametrize(
    "argv, reader",
    [
        (["segment", "--input", "{conllu}", "--method", "cascade"], None),
        (["segment", "--input", "{conllu}", "--method", "tree",
          "--weights", "{tmp}/weights.json"], "scoring.read_weights"),
        (["segment", "--input", "{conllu}", "--method", "scores",
          "--scores", "{tmp}/scores.tsv"], "dataset.load_scores"),
        (["tune", "--conllu", "{conllu}", "--gold", "{rhz}", "--out", "{tmp}/tuned.json"], None),
        (["eval", "--auto", "{rhz}", "--gold", "{rhz}", "--conllu", "{conllu}"], None),
        (["export-dataset", "--conllu", "{conllu}", "--gold", "{rhz}",
          "--out", "{tmp}/cand.tsv"], None),
        (["stats", "--rhz", "{rhz}", "--conllu", "{conllu}"], None),
    ],
    ids=["cascade", "tree", "scores", "tune", "eval", "export-dataset", "stats"],
)
def test_every_command_reaches_its_traced_readers_once(
    argv, reader, tmp_path, capsys, monkeypatch
):
    spans = _spans_module()
    fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
    gold = resources.files("rhesis").joinpath("data", "fixture.rhz")
    sentences = parse_conllu(fixture.read_bytes())
    write_weights(tmp_path / "weights.json", ScoringWeights())
    (tmp_path / "scores.tsv").write_text(
        "".join(f"{s.sent_id}\t1\t{len(s)}\t0.9\n" for s in sentences), encoding="utf-8"
    )
    # the config comes from RHESIS_CONFIG, so every command loads a file
    config = tmp_path / "rhesis.ini"
    config.write_text("[evo]\npopulation = 4\ngenerations = 1\n", encoding="utf-8")
    monkeypatch.setenv("RHESIS_CONFIG", str(config))
    recorder = spans.Recorder()
    with resources.as_file(fixture) as conllu, resources.as_file(gold) as rhz:
        paths = {"conllu": str(conllu), "rhz": str(rhz), "tmp": str(tmp_path)}
        with spans.traced_cli(recorder):
            code = main([arg.format(**paths) for arg in argv])
    capsys.readouterr()
    assert code == 0
    readers = ("config.load_config", "scoring.read_weights", "dataset.load_scores")
    names = [s["name"] for s in recorder.spans if s["name"] in readers]
    assert sorted(names) == sorted(filter(None, ["config.load_config", reader]))


def test_export_cli_reaches_both_export_layers_once(tmp_path, capsys):
    # bench/harness.py reads both layers' self times by name on every traced
    # pass, so a CLI that routed around either would crash a --trace 1 run
    spans = _spans_module()
    recorder = spans.Recorder()
    conllu = resources.files("rhesis").joinpath("data", "fixture.conllu")
    gold = resources.files("rhesis").joinpath("data", "fixture.rhz")
    out = tmp_path / "cand.tsv"
    with resources.as_file(conllu) as conllu_path, resources.as_file(gold) as gold_path:
        with spans.traced_cli(recorder):
            code = main(["export-dataset", "--conllu", str(conllu_path), "--gold", str(gold_path),
                         "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    names = [s["name"] for s in recorder.spans]
    assert names.count("dataset.export_candidates") == 1
    assert names.count("dataset.candidates_to_tsv") == 1
    rows = len(out.read_text(encoding="utf-8").splitlines()) - 1
    assert rows > 0
    assert spans.totals(recorder.spans, "dataset.export_candidates", "candidates") == rows
