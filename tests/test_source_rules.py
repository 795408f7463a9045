"""Rules on the package source that keep one front end per input file.

``corpus._decoded`` is the only decoder and the only code that handles line
ends, ``cli._named`` is the only code that installs a warning hook, and
``corpus.py`` holds the only calls of the ``Segmentation`` constructor.
"""

import ast
import re
from pathlib import Path

import rhesis

SOURCES = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted(Path(rhesis.__file__).parent.glob("*.py"))
}

STRIP_CR = re.compile(r"""rstrip\(\s*(["'])\\r\1\s*\)""")
CRLF = re.compile(r"""(["'])\\r\\n\1""")


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(SOURCES[module])
    return next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _hook_assignments(tree: ast.AST) -> list[ast.AST]:
    """The statements in ``tree`` that assign ``warnings.showwarning``."""
    found = []
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        )
        if any(
            isinstance(t, ast.Attribute) and t.attr == "showwarning"
            and isinstance(t.value, ast.Name) and t.value.id == "warnings"
            for t in targets
        ):
            found.append(node)
    return found


def test_the_package_sources_are_found():
    assert {"cli.py", "corpus.py", "dataset.py", "config.py", "scoring.py"} <= set(SOURCES)


def test_no_module_reads_a_file_as_text():
    assert [name for name, text in SOURCES.items() if "read_text(" in text] == []


def test_no_reader_strips_carriage_returns():
    assert [name for name, text in SOURCES.items() if STRIP_CR.search(text)] == []


def test_crlf_is_handled_only_in_decoded():
    decoded = ast.get_source_segment(SOURCES["corpus.py"], _function("corpus.py", "_decoded"))
    assert CRLF.search(decoded)
    rest = {name: text.replace(decoded, "") for name, text in SOURCES.items()}
    assert [name for name, text in rest.items() if CRLF.search(text)] == []


def test_the_warning_hook_is_assigned_only_in_named():
    inside = _hook_assignments(_function("cli.py", "_named"))
    assert len(inside) == 1
    everywhere = [
        node for text in SOURCES.values() for node in _hook_assignments(ast.parse(text))
    ]
    assert len(everywhere) == len(inside)


def test_only_corpus_builds_a_segmentation():
    callers = {
        name
        for name, text in SOURCES.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] == "Segmentation"  # bare or qualified
    }
    assert callers == {"corpus.py"}
