"""A sentence held as columns: its Token view, its new rejections, and a product path
that never builds a Token."""

import dataclasses
import json
from importlib import resources

import pytest

from rhesis import ScoringWeights, Sentence, StructuralError, Token, corpus, write_weights
from rhesis.cli import main
from rhesis.corpus import align_gold, parse_conllu, parse_gold


def _tok(i, form, head, misc=""):
    return Token(index=i, form=form, upos="X", head=head, deprel="root" if head == 0 else "dep",
                 misc=misc)


def test_columns_and_the_token_view_agree():
    toks = (_tok(1, "Le", 2), _tok(2, "chat", 0, "SpaceAfter=No"), _tok(3, ".", 2))
    sent = Sentence.from_tokens("s", toks)
    assert sent.forms == ("Le", "chat", ".")
    assert sent.heads == (2, 0, 2)
    assert sent.deprels == ("dep", "root", "dep")
    assert sent.upos == ("X", "X", "X")
    assert sent.miscs == ("", "SpaceAfter=No", "")
    assert len(sent) == 3 and sent.text == "Le chat."
    assert sent.tokens is toks  # from_tokens keeps the tuple it was given
    parsed = parse_conllu(
        "".join(f"{t.index}\t{t.form}\t_\tX\t_\t_\t{t.head}\t{t.deprel}\t_\t{t.misc or '_'}\n"
                for t in toks)
    )[0]
    assert parsed.tokens == toks  # built from the columns on first read...
    assert parsed.tokens is parsed.tokens  # ...and kept
    assert parsed == dataclasses.replace(sent, sent_id="s1")


def test_replace_builds_the_token_view_afresh():
    sent = Sentence.from_tokens("s", [_tok(1, "a", 0), _tok(2, "b", 1)])
    renamed = dataclasses.replace(sent, forms=("x", "y"))
    assert [t.form for t in renamed.tokens] == ["x", "y"]
    assert "Token" not in repr(sent)


@pytest.mark.parametrize(
    "toks, named",
    [
        ([_tok(1, "a", 0), _tok(5, "b", 1)], "token 5 ('b') out of sequence (expected 2)"),
        ([_tok(2, "a", 0), _tok(1, "b", 2)], "token 2 ('a') out of sequence (expected 1)"),
        ([_tok(1, "a", 0), _tok(2, "b", 1), _tok(2, "c", 1)],
         "token 2 ('c') out of sequence (expected 3)"),
    ],
)
def test_indices_must_run_one_to_n(toks, named):
    with pytest.raises(StructuralError) as raised:
        Sentence.from_tokens("g", toks)
    assert str(raised.value) == f"sentence 'g': {named}"


@pytest.mark.parametrize("form", ["a\nb", "\na", "a\n", "a\r\nb"])
def test_a_line_break_in_a_form_is_rejected(form):
    with pytest.raises(StructuralError, match=r"^sentence 'nl': token 1 has a line break"):
        Sentence.from_tokens("nl", [_tok(1, form, 0), _tok(2, "c", 1)])


def _fixture_files(tmp_path):
    """The bundled fixture, a weight file, a score table from its gold, and a small tune config."""
    paths = {}
    for name in ("fixture.conllu", "fixture.rhz"):
        with resources.as_file(resources.files("rhesis").joinpath("data", name)) as src:
            paths[name] = tmp_path / name
            paths[name].write_bytes(src.read_bytes())
    conllu = paths["fixture.conllu"].read_text(encoding="utf-8")
    gold = paths["fixture.rhz"].read_text(encoding="utf-8")
    aligned = align_gold(parse_conllu(conllu), parse_gold(gold))
    rows = [f"{e.sentence.sent_id}\t{a}\t{b}\t0.9\n" for e in aligned for a, b in e.gold.spans()]
    paths["scores"] = tmp_path / "scores.tsv"
    paths["scores"].write_text("".join(rows), encoding="utf-8")
    paths["weights"] = tmp_path / "weights.json"
    write_weights(paths["weights"], ScoringWeights(w_dep=1.0, w_count=0.1, w_balance=0.05,
                                                   deprel_weights={"conj": 0.9, "det": -0.8}))
    paths["evo"] = tmp_path / "evo.ini"
    paths["evo"].write_text("[evo]\npopulation = 8\ngenerations = 2\n", encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def _commands(p, out):
    c, g = p["fixture.conllu"], p["fixture.rhz"]
    return {
        "segment-cascade": ["segment", "--input", c, "--method", "cascade", "--out", out],
        "segment-tree": ["segment", "--input", c, "--method", "tree", "--weights", p["weights"],
                         "--out", out],
        "segment-scores": ["segment", "--input", c, "--method", "scores", "--scores", p["scores"],
                           "--out", out],
        "segment-stdout": ["segment", "--input", c, "--method", "cascade", "--format", "records"],
        "eval": ["eval", "--auto", g, "--gold", g, "--conllu", c, "--report", out],
        "stats": ["stats", "--rhz", g, "--conllu", c],
        "export-dataset": ["export-dataset", "--conllu", c, "--gold", g, "--negatives", "2",
                           "--seed", "3", "--out", out],
        "tune": ["tune", "--conllu", c, "--gold", g, "--config", p["evo"], "--seed", "5",
                 "--out", out],
    }


def _run(argv, out, capsys):
    code = main(argv)
    stdout = capsys.readouterr().out
    files = {}
    for path in (out, out + ".manifest.json"):
        try:
            with open(path, "rb") as fh:
                files[path] = fh.read()
        except FileNotFoundError:
            pass
    return code, stdout, files


@pytest.mark.parametrize(
    "command",
    ["segment-cascade", "segment-tree", "segment-scores", "segment-stdout", "eval", "stats",
     "export-dataset", "tune"],
)
def test_no_product_path_builds_a_token(command, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RHESIS_CONFIG", raising=False)
    p = _fixture_files(tmp_path)
    runs = []
    for patched in (False, True):
        out = str(tmp_path / f"{command}-{patched}.out")
        with monkeypatch.context() as m:
            if patched:
                def forbidden(*args, **kwargs):
                    raise AssertionError("a Token was built on the product path")

                m.setattr(corpus, "Token", forbidden)
            code, stdout, files = _run(_commands(p, out)[command], out, capsys)
        assert code == 0
        runs.append((stdout, [files[k] for k in sorted(files)]))
    plain, patched = runs
    assert patched == plain
    assert plain[0] or plain[1]  # the command wrote something to compare
    if command == "eval":
        assert json.loads(plain[1][0])["weighted_precision"] == 1.0
