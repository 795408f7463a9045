"""Tests for configuration loading and the effective-config view."""

import configparser
import json
import pathlib
import re

import pytest

from rhesis import (
    CascadeConfig,
    EngineConfig,
    FormatError,
    SpanConfig,
    effective_config,
    load_config,
    weights_from_json,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

FULL = """\
[span]
max_chars = 38
target_chars = 24
count_mode = words

[cascade]
priority_prepositions = chez, vers
clause_deprels = advcl acl:relcl, conj
glue_deprels = det,aux
punctuation = , ; (

[tree]
score_epsilon = 0.05

[evo]
population = 12
generations = 5
seed = 7
fitness_metric = f1
"""


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("RHESIS_CONFIG", raising=False)


def _write(tmp_path, text, name="rhesis.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_no_path_no_env_gives_builtin_defaults(self):
        cfg = load_config()
        assert cfg == EngineConfig()
        assert (cfg.span.max_chars, cfg.span.target_chars) == (45, 32)
        assert cfg.span.count_mode == "characters"
        assert cfg.score_epsilon == 0.01
        assert cfg.evo.population == 40

    def test_default_cascade_vocabulary(self):
        cfg = load_config()
        assert "chez" in cfg.cascade.priority_prepositions
        assert "acl:relcl" in cfg.cascade.clause_deprels
        assert "det" in cfg.cascade.glue_deprels
        assert "," in cfg.cascade.cut_punctuation
        assert "." not in cfg.cascade.cut_punctuation


class TestFileLoading:
    def test_full_file(self, tmp_path):
        cfg = load_config(_write(tmp_path, FULL))
        assert (cfg.span.max_chars, cfg.span.target_chars) == (38, 24)
        assert cfg.span.count_mode == "words"
        assert cfg.cascade.priority_prepositions == {"chez", "vers"}
        assert cfg.cascade.clause_deprels == {"advcl", "acl:relcl", "conj"}
        assert cfg.cascade.glue_deprels == {"det", "aux"}
        assert cfg.cascade.cut_punctuation == {",", ";", "("}
        assert cfg.score_epsilon == 0.05
        assert (cfg.evo.population, cfg.evo.generations, cfg.evo.seed) == (12, 5, 7)
        assert cfg.evo.fitness_metric == "f1"

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[span]\nmax_chars = 60\n"))
        assert cfg.span.max_chars == 60
        assert cfg.span.target_chars == 32
        defaults = EngineConfig()
        assert cfg.cascade.span == cfg.span
        assert cfg.cascade.clause_deprels == defaults.cascade.clause_deprels
        assert cfg.cascade.cut_punctuation == defaults.cascade.cut_punctuation
        assert cfg.score_epsilon == defaults.score_epsilon
        assert cfg.evo == defaults.evo

    def test_a_budget_without_a_target_lowers_the_target_as_span_does(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[span]\nmax_chars = 20\n"))
        assert cfg.span == SpanConfig(max_chars=20, target_chars=20)
        assert cfg.cascade.span == cfg.span
        with pytest.raises(FormatError, match="max_chars must be positive, got 0"):
            load_config(_write(tmp_path, "[span]\nmax_chars = 0\n"))

    def test_comma_can_be_a_punctuation_item(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[cascade]\npunctuation = , —\n"))
        assert cfg.cascade.cut_punctuation == {",", "—"}

    def test_word_lists_split_on_commas_and_whitespace(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, "[cascade]\npriority_prepositions = chez,vers  malgré\n"))
        assert cfg.cascade.priority_prepositions == {"chez", "vers", "malgré"}

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes("\ufeff[span]\nmax_chars = 50\n".encode("utf-8"))
        assert load_config(path).span.max_chars == 50


class TestEnvironmentVariable:
    def test_env_names_the_file(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "[span]\nmax_chars = 50\n")
        monkeypatch.setenv("RHESIS_CONFIG", str(path))
        assert load_config().span.max_chars == 50

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RHESIS_CONFIG", str(tmp_path / "absent.ini"))
        path = _write(tmp_path, "[span]\nmax_chars = 50\n")
        assert load_config(path).span.max_chars == 50

    def test_empty_env_means_defaults(self, monkeypatch):
        monkeypatch.setenv("RHESIS_CONFIG", "")
        assert load_config() == EngineConfig()


class TestRejection:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(FormatError, match=r"unknown config sections.*chunking"):
            load_config(_write(tmp_path, "[chunking]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(FormatError, match=r"unknown keys in \[span\].*maximum"):
            load_config(_write(tmp_path, "[span]\nmaximum = 45\n"))

    def test_unknown_evo_key(self, tmp_path):
        with pytest.raises(FormatError, match=r"\[evo\]"):
            load_config(_write(tmp_path, "[evo]\nsteps = 3\n"))

    def test_integer_key_rejects_words(self, tmp_path):
        with pytest.raises(FormatError, match="must be an integer"):
            load_config(_write(tmp_path, "[span]\nmax_chars = many\n"))

    def test_float_key_rejects_words(self, tmp_path):
        with pytest.raises(FormatError, match="must be a number"):
            load_config(_write(tmp_path, "[tree]\nscore_epsilon = heavy\n"))

    def test_tree_weight_keys_are_refused(self, tmp_path):
        # tree weights come from a weight file (segment --weights), not from a config
        with pytest.raises(FormatError, match=r"unknown keys in \[tree\]: \['w_dep'\]"):
            load_config(_write(tmp_path, "[tree]\nw_dep = 1\nscore_epsilon = 0.05\n"))

    def test_a_tree_deprel_weights_section_is_refused(self, tmp_path):
        with pytest.raises(FormatError, match=r"unknown config sections: \['tree.deprel_weights'\]"):
            load_config(_write(tmp_path, "[tree.deprel_weights]\nconj = 0.9\n"))

    def test_keys_keep_their_case(self, tmp_path):
        with pytest.raises(FormatError, match=r"unknown keys in \[span\]: \['Max_Chars'\]"):
            load_config(_write(tmp_path, "[span]\nMax_Chars = 50\n"))

    def test_a_negative_seed_is_refused(self, tmp_path):
        with pytest.raises(FormatError, match="seed must be >= 0"):
            load_config(_write(tmp_path, "[evo]\nseed = -1\n"))

    def test_score_epsilon_range(self, tmp_path):
        with pytest.raises(FormatError, match="score_epsilon"):
            load_config(_write(tmp_path, "[tree]\nscore_epsilon = 1.5\n"))
        with pytest.raises(FormatError, match="score_epsilon"):
            load_config(_write(tmp_path, "[tree]\nscore_epsilon = 0\n"))

    def test_invalid_count_mode_wrapped(self, tmp_path):
        with pytest.raises(FormatError, match="count_mode"):
            load_config(_write(tmp_path, "[span]\ncount_mode = syllables\n"))

    def test_target_above_max_wrapped(self, tmp_path):
        with pytest.raises(FormatError):
            load_config(_write(tmp_path, "[span]\nmax_chars = 20\ntarget_chars = 30\n"))

    def test_broken_ini_syntax(self, tmp_path):
        with pytest.raises(FormatError, match="config"):
            load_config(_write(tmp_path, "max_chars = 45\n"))

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[span]\nmax_chars = 4\xff5\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nowhere.ini")


@pytest.mark.parametrize("value", [20.5, 20.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("name", ["max_chars", "target_chars"])
def test_a_span_budget_must_be_an_integer(name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
        SpanConfig(**{name: value})


# One file for each kind of error a config can hold: bytes that are not UTF-8,
# INI syntax, an unknown section, an unknown key, a number that cannot be read
# and a value a config constructor refuses.
BAD_CONFIGS = {
    "utf8": b"[span]\nmax_chars = 4\xff5\n",
    "syntax": b"max_chars = 45\n",
    "section": b"[chunking]\nx = 1\n",
    "key": b"[tree]\nw_dep = 1\n",
    "number": b"[span]\nmax_chars = many\n",
    "value": b"[span]\nmax_chars = 20\ntarget_chars = 30\n",
}


@pytest.mark.parametrize("data", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
@pytest.mark.parametrize("from_env", [False, True], ids=["path", "env"])
def test_every_config_error_names_the_file_once(data, from_env, tmp_path, monkeypatch):
    path = tmp_path / "bad.ini"
    path.write_bytes(data)
    if from_env:
        monkeypatch.setenv("RHESIS_CONFIG", str(path))
    with pytest.raises(FormatError) as info:
        load_config(None if from_env else path)
    message = str(info.value)
    assert message.startswith(f"config {path}: ")
    assert message.count(str(path)) == 1


class TestEffectiveConfig:
    def test_sections_and_serializability(self):
        view = effective_config(EngineConfig())
        assert set(view) == {"span", "cascade", "tree", "evo"}
        assert view["span"]["max_chars"] == 45
        assert view["tree"] == {"score_epsilon": 0.01}
        assert view["evo"]["fitness_metric"] == "precision"
        json.dumps(view)  # must be JSON-clean for the CLI echo line

    def test_collections_are_sorted(self, tmp_path):
        cfg = load_config(_write(tmp_path, FULL))
        view = effective_config(cfg)
        assert view["cascade"]["priority_prepositions"] == ["chez", "vers"]
        assert view["cascade"]["punctuation"] == sorted({",", ";", "("})


def _as_ini(view: dict) -> str:
    """The effective-config view written back out as a config file."""
    lines = []
    for section, values in view.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, list):
                lines.append(f"{key} = {' '.join(value)}")
            else:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _echoed_keys(view: dict) -> set[tuple[str, str]]:
    return {(section, key) for section, values in view.items() for key in values}


class TestOneSourceOfTruth:
    @pytest.mark.parametrize("text", ["", FULL], ids=["defaults", "full"])
    def test_echo_reloads_to_the_same_config(self, tmp_path, text):
        cfg = load_config(_write(tmp_path, text)) if text else EngineConfig()
        again = load_config(_write(tmp_path, _as_ini(effective_config(cfg)), "echo.ini"))
        assert again == cfg
        assert effective_config(again) == effective_config(cfg)

    def test_accepted_keys_are_unchanged(self):
        view = effective_config(EngineConfig())
        assert {section: sorted(values) for section, values in view.items()} == {
            "span": ["count_mode", "max_chars", "target_chars"],
            "cascade": ["clause_deprels", "glue_deprels", "priority_prepositions", "punctuation"],
            "tree": ["score_epsilon"],
            "evo": ["crossover_rate", "elitism", "fitness_metric", "generations",
                    "mutation_rate", "mutation_sigma", "population", "seed", "tournament_k"],
        }

    def test_engine_span_governs_the_cascade(self):
        span = SpanConfig(max_chars=60)
        assert EngineConfig(span=span).cascade.span.max_chars == 60
        cfg = EngineConfig(span=span, cascade=CascadeConfig(span=SpanConfig(20, 10)))
        assert cfg.cascade.span == span

    @pytest.mark.parametrize(
        "key", ["priority_prepositions", "clause_deprels", "glue_deprels", "punctuation"]
    )
    def test_empty_list_is_rejected(self, tmp_path, key):
        with pytest.raises(FormatError, match="must not be empty"):
            load_config(_write(tmp_path, f"[cascade]\n{key} =\n"))


def test_readme_weight_example_is_a_weight_file():
    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    weights = weights_from_json(block)
    assert (weights.w_dep, weights.w_count, weights.w_balance) == (1.0, 0.1, 0.05)
    assert weights.deprel_weights == {"conj": 0.9, "advcl": 0.8, "det": -0.8, "acl:relcl": 0.35}


def test_readme_ini_block_lists_every_key(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    cfg = load_config(_write(tmp_path, block))
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    parser.read_string(block)
    written = {(section, key) for section in parser.sections() for key in parser.options(section)}
    assert written == _echoed_keys(effective_config(cfg))
