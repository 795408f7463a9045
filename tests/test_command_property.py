"""Every command, run in process on generated inputs, exits 0, 1 or 2.

Hypothesis writes a document of ``helpers.random_sentence`` trees, a gold
from a random tiling of it, a score table, a weight file with extreme finite
floats and a config drawn from both the valid and the invalid ranges, and in
some cases mutates one line of the document, the gold or the table: a dropped
cell, a changed head, a repeated id, a CR or a BOM.  Then it calls
``rhesis.cli.main`` for each command.  No exception may leave ``main``; a data
error must name an option and its file, or the config; and a successful
``segment`` must read back as gold with every unit inside the budget or a
single token.
"""

import contextlib
import io
import json
import random
import re
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rhesis import SpanConfig, align_gold, fits_span, parse_conllu, parse_gold, render_text
from rhesis.cli import main

from helpers import DEPRELS, random_segmentation, random_sentence

_SCALARS = ("w_dep", "w_count", "w_balance", "w_depth", "w_cross")
_FLOATS = (
    st.floats(0.0, 1e12)
    | st.sampled_from([0.0, 1.0, 5e-324, 1e9, 1e12, 1e300, -1.0])
    | st.floats(allow_nan=False, allow_infinity=False)
)
_WEIGHTS = st.fixed_dictionaries({}, optional={
    **{name: _FLOATS for name in _SCALARS},
    "deprel_weights": st.dictionaries(st.sampled_from(DEPRELS), _FLOATS | st.floats(-1, 1)),
    "default_deprel_weight": _FLOATS | st.floats(-1, 1),
})
_COUNTS = st.integers(-1, 8) | st.sampled_from([45, 10**9, 10**18, 2**63, 10**400])
_CONFIG = st.fixed_dictionaries({}, optional={
    "span": st.fixed_dictionaries({}, optional={
        "max_chars": _COUNTS,
        "target_chars": _COUNTS,
        "count_mode": st.sampled_from(["characters", "words", "bytes"]),
    }),
    "tree": st.fixed_dictionaries(
        {"score_epsilon": st.sampled_from([0.01, 0.5, 1e-300, 0.0, 1.0])}
    ),
    "evo": st.fixed_dictionaries({}, optional={
        "population": st.integers(-1, 6),
        "elitism": st.integers(-1, 3),
        "tournament_k": st.integers(0, 3),
        "mutation_sigma": st.sampled_from([0.1, 1e9, 0.0, -1.0]),
        "crossover_rate": st.sampled_from([0.0, 0.7, 1.5]),
        "fitness_metric": st.sampled_from(["precision", "f1", "recall"]),
    }),
})
_MUTATIONS = st.sampled_from(["drop", "head", "id", "cr", "bom"])
# the error names the input it is about: an option and its path, or the config
_NAMED = re.compile(r"rhesis: error: (--[a-z]+ |config )\S")


def _conllu(sentences) -> str:
    blocks = []
    for s in sentences:
        rows = [f"# sent_id = {s.sent_id}"]
        rows += [
            "\t".join([str(t.index), t.form, "_", t.upos, "_", "_", str(t.head), t.deprel, "_",
                       t.misc or "_"])
            for t in s.tokens
        ]
        blocks.append("\n".join(rows) + "\n")
    return "\n".join(blocks)


def _gold(rng: random.Random, sentences) -> str:
    """A random tiling of each sentence, in one or two ``#doc`` groups."""
    segs = [random_segmentation(rng, s) for s in sentences]
    split = rng.randint(0, len(segs))
    parts = [("#doc A\n", segs[:split]), ("#doc B\n", segs[split:])]
    return "\n".join(head + render_text(group) for head, group in parts if group)


def _scores(rng: random.Random, sentences) -> str:
    rows = []
    for s in sentences + [random_sentence(rng, 1, 2, sent_id="elsewhere")]:
        for _ in range(rng.randint(0, 2 * len(s))):
            a = rng.randint(1, len(s))
            p = rng.choice([rng.random(), 0.0, 1.0, 5e-324]) if rng.random() > 0.02 else 1.5
            rows.append(f"{s.sent_id}\t{a}\t{rng.randint(a, len(s) + 1)}\t{p!r}\n")
    return "".join(rows)


def _ini(config: dict) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in config.items()
    )


def _mutated(text: str, kind: str, draw) -> str:
    lines = text.split("\n")
    k = draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split("\t")
    if kind == "drop" and len(cells) > 1:
        del cells[draw(st.integers(0, len(cells) - 1))]
    elif kind == "head" and len(cells) == 10:
        cells[6] = str(draw(st.integers(-1, 12)))
    elif kind == "id":
        if lines[k].startswith("# sent_id"):
            cells = [lines[0]]  # the first sentence's id, again
        else:
            cells[0] = lines[draw(st.integers(0, len(lines) - 1))].split("\t")[0]
    elif kind == "cr":
        cut = draw(st.integers(0, len(lines[k])))
        cells = [lines[k][:cut] + "\r" + lines[k][cut:]]
    elif kind == "bom":
        cells = ["\ufeff" + lines[k]]
    lines[k] = "\t".join(cells)
    return "\n".join(lines)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv, code: int, err: str) -> None:
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        last = err.splitlines()[-1]
        # export-dataset refuses a text its TSV cannot hold by naming the sentence,
        # not yet the --conllu file (tests/test_cli.py pins that message)
        unnamed = argv[0] == "export-dataset" and last.endswith("a tab or a line break")
        assert _NAMED.match(last) or unnamed, (argv, last)


def _effective_span(err: str) -> SpanConfig:
    header = next(line for line in err.splitlines() if line.startswith("# effective-config "))
    return SpanConfig(**json.loads(header.split(" ", 2)[2])["config"]["span"])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32),
    weights=_WEIGHTS,
    config=_CONFIG,
    span=st.none() | st.integers(1, 40),
    mutation=st.none() | st.tuples(st.sampled_from(["input", "gold", "scores"]), _MUTATIONS),
    data=st.data(),
)
def test_every_command_exits_with_a_named_status(seed, weights, config, span, mutation, data):
    rng = random.Random(seed)
    sentences = [random_sentence(rng, 1, 9, sent_id=f"s{k}") for k in range(rng.randint(1, 3))]
    texts = {
        "input": _conllu(sentences),
        "gold": _gold(rng, sentences),
        "scores": _scores(rng, sentences),
        "weights": json.dumps(weights),
        "config": _ini(config),
    }
    if mutation:
        target, kind = mutation
        texts[target] = _mutated(texts[target], kind, data.draw)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("always")  # every warning takes the CLI's printing path
        path = {name: str(Path(tmp, name)) for name in (*texts, "auto", "out")}
        for name, text in texts.items():
            Path(path[name]).write_bytes(text.encode("utf-8"))
        common = ["--config", path["config"]]
        extra = {"tree": ["--weights", path["weights"]], "scores": ["--scores", path["scores"]]}
        auto = None
        for method in ("cascade", "tree", "scores"):
            argv = ["segment", "--input", path["input"], "--method", method, *extra.get(method, []),
                    *(["--span", str(span)] if span else []), *common]
            code, out, err = _run(argv)
            _check(argv, code, err)
            if code == 0:
                budget = _effective_span(err)
                read = parse_conllu(Path(path["input"]).read_bytes())
                for entry in align_gold(read, parse_gold(out)):
                    for unit in entry.gold.rhesis:
                        assert fits_span(unit.text, budget) or unit.start == unit.end, (argv, unit)
                auto = auto or out
        Path(path["auto"]).write_text(auto or texts["gold"], encoding="utf-8")
        corpus = ["--conllu", path["input"]]
        for argv in (
            ["tune", *corpus, "--gold", path["gold"], "--generations", str(rng.randint(0, 2)),
             "--seed", str(rng.randint(0, 9)), "--out", path["out"]],
            ["eval", *corpus, "--auto", path["auto"], "--gold", path["gold"]],
            ["export-dataset", *corpus, "--gold", path["gold"], "--negatives",
             str(rng.randint(0, 4)), "--out", path["out"]],
            ["stats", *corpus, "--rhz", path["gold"]],
        ):
            code, _, err = _run([*argv, *common])
            _check(argv, code, err)


@pytest.mark.parametrize(
    "budget", [10**18, 10**18 + 1, 2**63, 10**400], ids=["ceiling", "past", "2**63", "10**400"]
)
def test_a_budget_past_the_ceiling_is_refused_as_config(budget, tmp_path):
    """The tuner crashed on a target of 2**63 and the tree DP on one of 10**400."""
    config, weights = tmp_path / "huge.ini", tmp_path / "weights.json"
    config.write_text(f"[span]\nmax_chars = {budget}\ntarget_chars = {budget}\n", encoding="utf-8")
    weights.write_text('{"w_balance": 1e12}', encoding="utf-8")
    fixture = resources.files("rhesis").joinpath("data")
    with resources.as_file(fixture) as data:
        corpus = ["--conllu", str(data / "fixture.conllu"), "--gold", str(data / "fixture.rhz")]
        for argv in (
            ["tune", *corpus, "--generations", "0", "--out", str(tmp_path / "tuned.json")],
            ["segment", "--input", str(data / "fixture.conllu"), "--method", "tree",
             "--weights", str(weights)],
        ):
            code, _, err = _run([*argv, "--config", str(config)])
            if budget <= 10**18:
                assert code == 0, err
            else:
                assert code == 2
                assert err.splitlines()[-1].startswith(
                    f"rhesis: error: config {config}: max_chars must be at most 1e+18, got "
                )
