"""A JSON ``true`` or ``false`` is not a weight: the library and the CLI refuse it."""

from importlib import resources

import pytest

from rhesis import ScoringWeights
from rhesis.cli import main
from rhesis.errors import FormatError
from rhesis.scoring import weights_from_json


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("RHESIS_CONFIG", raising=False)


BOOLEAN_PAYLOADS = {
    "scalar": ('{"w_dep": true}', "w_dep must be a number, got True"),
    "scalar-false": ('{"w_cross": false}', "w_cross must be a number, got False"),
    "deprel": ('{"w_dep": 1, "deprel_weights": {"conj": false}}',
               "deprel weight for 'conj' must be a number, got False"),
    "default": ('{"default_deprel_weight": true}',
                "default_deprel_weight must be a number, got True"),
    # not booleans, but refused the same way: strings, and scalars past the ceiling
    "string-scalar": ('{"w_dep": "x"}', "w_dep must be a number, got 'x'"),
    "string-deprel": ('{"deprel_weights": {"det": "x"}}',
                      "deprel weight for 'det' must be a number, got 'x'"),
    "string-default": ('{"default_deprel_weight": "x"}',
                       "default_deprel_weight must be a number, got 'x'"),
    "huge-balance": ('{"w_balance": 1e300}', "w_balance must be in [0, 1e+12], got 1e+300"),
    "huge-count": ('{"w_count": 1e300}', "w_count must be in [0, 1e+12], got 1e+300"),
    "huge-depth": ('{"w_depth": 1e300}', "w_depth must be in [0, 1e+12], got 1e+300"),
}


@pytest.mark.parametrize("payload, message", BOOLEAN_PAYLOADS.values(), ids=BOOLEAN_PAYLOADS)
def test_weights_from_json_refuses_booleans(payload, message):
    with pytest.raises(FormatError) as raised:
        weights_from_json(payload)
    assert str(raised.value) == f"bad weight file: {message}"


@pytest.mark.parametrize(
    "kwargs",
    [{"w_balance": True}, {"deprel_weights": {"det": True}}, {"default_deprel_weight": False}],
)
def test_the_constructor_refuses_booleans(kwargs):
    with pytest.raises(TypeError, match="must be a number"):
        ScoringWeights(**kwargs)


def test_numbers_equal_to_booleans_are_still_weights():
    w = weights_from_json('{"w_dep": 1, "w_count": 0, "deprel_weights": {"conj": 1.0}}')
    assert (w.w_dep, w.w_count, w.deprel_weights) == (1, 0, {"conj": 1.0})


@pytest.mark.parametrize("payload, message", BOOLEAN_PAYLOADS.values(), ids=BOOLEAN_PAYLOADS)
def test_segment_with_a_boolean_weight_file_exits_2(payload, message, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(payload, encoding="utf-8")
    fixture = resources.files("rhesis").joinpath("data", "fixture.conllu")
    with resources.as_file(fixture) as conllu:
        code = main(["segment", "--input", str(conllu), "--method", "tree",
                     "--weights", str(weights)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"rhesis: error: --weights {weights}: bad weight file: {message}" in captured.err
