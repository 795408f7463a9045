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

from rhesis import parse_conllu
from rhesis.cli import main

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
