"""numpy is loaded only by tuning, tuning leaves ``numpy.ma`` unloaded, the
package's public names are exactly its modules' ``__all__``, and the name
``rhesis.evolve`` keeps both of its meanings: the package attribute is the
function, the submodule stays importable under the same dotted name."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types

import rhesis
from rhesis import evolve

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(rhesis.__file__)))

# Run in a fresh interpreter: pytest plugins or hypothesis may already have
# loaded numpy into this one.
CHILD = textwrap.dedent("""
    import io, json, sys
    from contextlib import redirect_stderr, redirect_stdout
    from importlib.resources import files

    seen = {}
    import rhesis
    seen["import rhesis"] = "numpy" in sys.modules
    import rhesis.cli
    seen["import rhesis.cli"] = "numpy" in sys.modules

    from rhesis import ScoringWeights, write_weights
    tmp = sys.argv[1]
    data = files("rhesis") / "data"
    conllu, gold = str(data / "fixture.conllu"), str(data / "fixture.rhz")
    write_weights(f"{tmp}/w.json", ScoringWeights())
    with open(f"{tmp}/scores.tsv", "w") as f:
        f.write("conte1-s01\\t1\\t3\\t0.9\\n")
    commands = {
        "segment cascade": ["segment", "--input", conllu, "--method", "cascade"],
        "segment tree": ["segment", "--input", conllu, "--method", "tree",
                         "--weights", f"{tmp}/w.json"],
        "segment scores": ["segment", "--input", conllu, "--method", "scores",
                           "--scores", f"{tmp}/scores.tsv"],
        "eval": ["eval", "--auto", gold, "--gold", gold, "--conllu", conllu],
        "stats": ["stats", "--rhz", gold, "--conllu", conllu],
        "export-dataset": ["export-dataset", "--conllu", conllu, "--gold", gold,
                           "--out", f"{tmp}/cand.tsv"],
        "tune": ["tune", "--conllu", conllu, "--gold", gold, "--generations", "1",
                 "--out", f"{tmp}/tuned.json"],
    }
    for name, argv in commands.items():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = rhesis.cli.main(argv)
        assert code == 0, (name, code)
        seen[name] = "numpy" in sys.modules
    seen["numpy.ma"] = "numpy.ma" in sys.modules
    print(json.dumps(seen))
""")


def test_only_tune_loads_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # np.unique loads numpy.ma, over a megabyte of peak memory for a sort
    assert seen.pop("numpy.ma") is False
    assert seen.pop("tune") is True  # the guard can see numpy when it is there
    assert seen == {name: False for name in seen}
    assert list(seen) == [
        "import rhesis", "import rhesis.cli", "segment cascade", "segment tree",
        "segment scores", "eval", "stats", "export-dataset",
    ]


def test_evolve_names_the_function_and_the_module():
    assert callable(evolve) and evolve.__name__ == "evolve"
    assert rhesis.evolve is evolve
    module = importlib.import_module("rhesis.evolve")
    assert module.evolve is evolve
    for name in ("SCALAR_ORDER", "EvoConfig", "_Block", "_FitnessContext"):
        assert hasattr(module, name), name
    assert module.SCALAR_ORDER[0] == "w_dep"


def test_the_package_exports_exactly_its_library_modules_all():
    # every public module but the command line is the library's, and declares __all__
    modules = [
        importlib.import_module(f"rhesis.{info.name}")
        for info in pkgutil.iter_modules(rhesis.__path__)
        if not info.name.startswith("_") and info.name != "cli"
    ]
    exported = set().union(*(module.__all__ for module in modules))
    public = {
        name for name, value in vars(rhesis).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported
