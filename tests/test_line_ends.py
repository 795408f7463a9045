"""Line ends are read in one place, ``corpus._decoded``: every reader gives
the same result for LF, CRLF, a run of CRs before each LF and a final CR."""

from importlib import resources

import pytest

from rhesis import (
    ScoringWeights,
    load_config,
    load_scores,
    parse_conllu,
    parse_gold,
    read_weights,
)
from rhesis.corpus import _decoded
from rhesis.errors import ParseError
from rhesis.scoring import weights_to_json

DATA = resources.files("rhesis").joinpath("data")

SCORES = "s1\t1\t4\t0.99\n\ns1\t5\t8\t0.5\ns2\t1\t3\t0.9\n"
CONFIG = """\
# a comment
[span]
max_chars = 30
target_chars = 20

[cascade]
punctuation = , ; :
glue_deprels = det, case
  amod
"""
WEIGHTS = weights_to_json(ScoringWeights(w_dep=1.0, w_count=0.2))


def _from_file(read):
    def from_file(data: bytes, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(data)
        return read(str(path))
    return from_file


READERS = {
    "parse_conllu": (DATA.joinpath("fixture.conllu").read_text(encoding="utf-8"),
                     lambda data, _: parse_conllu(data)),
    "parse_gold": (DATA.joinpath("fixture.rhz").read_text(encoding="utf-8"),
                   lambda data, _: parse_gold(data)),
    "load_scores": (SCORES, lambda data, _: load_scores(data)),
    "load_config": (CONFIG, _from_file(load_config)),
    "read_weights": (WEIGHTS, _from_file(read_weights)),
}

ENDINGS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr-run": lambda text: text.replace("\n", "\r\r\n"),
    "final-cr": lambda text: text.rstrip("\n") + "\r",  # the last line ends in a CR
}


@pytest.mark.parametrize("ending", ENDINGS)
@pytest.mark.parametrize("reader", READERS)
def test_every_line_end_reads_as_lf(reader, ending, tmp_path):
    text, read = READERS[reader]
    assert text.endswith("\n") and "\r" not in text
    expected = read(text.encode("utf-8"), tmp_path)
    assert expected  # something was read
    assert read(ENDINGS[ending](text).encode("utf-8"), tmp_path) == expected


@pytest.mark.parametrize("data, text", [
    ("a\rb\r\r\nc\r\r", "a\rb\nc"),
    ("\ufeffa\r\n\r\nb", "a\n\nb"),
    (b"\xef\xbb\xbfa\r\n", "a\n"),
    ("\r", ""),
])
def test_only_crs_that_end_a_line_or_the_text_go(data, text):
    assert _decoded(data, ParseError) == text
