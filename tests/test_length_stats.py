"""length_stats against an independent definition, and the `stats` output on
the bundled fixture pinned byte for byte."""

import hashlib
import io
import math
import statistics
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from rhesis import Sentence, Token, length_stats, segmentation_from_cuts
from rhesis.cli import main

# sha256 of `rhesis stats` stdout on the fixture, computed when length_stats
# still went through numpy's mean and std
STATS_SHA256 = "8cc110482a275eda0711f6d0dd383ffe81cfeffa97c2b89c796256fb67781d71"


def _one_token_sentences(texts):
    """One single-token rhesis per text, so the rhesis texts are the inputs."""
    return [
        segmentation_from_cuts(
            Sentence.from_tokens(f"s{i}", [Token(index=1, form=t, upos="X", head=0,
                                                 deprel="root")]),
            (),
        )
        for i, t in enumerate(texts)
    ]


WORD = st.text(alphabet="abcdé", min_size=1, max_size=12)
TEXT = st.lists(WORD, min_size=1, max_size=6).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(TEXT, min_size=1, max_size=40))
def test_length_stats_matches_statistics(texts):
    stats = length_stats(_one_token_sentences(texts))
    chars = [len(t) for t in texts]
    words = [len(t.split()) for t in texts]
    assert stats.count == len(texts)
    for got, want in (
        (stats.mean_chars, statistics.fmean(chars)),
        (stats.std_chars, statistics.pstdev(chars)),
        (stats.mean_words, statistics.fmean(words)),
        (stats.std_words, statistics.pstdev(words)),
    ):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)
    assert sum(stats.histogram.values()) == len(texts)


@settings(max_examples=100, deadline=None)
@given(length=st.integers(1, 10**6), count=st.integers(1, 50))
def test_constant_lengths_have_zero_std(length, count):
    stats = length_stats(_one_token_sentences(["a" * length] * count))
    assert stats.mean_chars == length and stats.std_chars == 0.0
    assert stats.mean_words == 1.0 and stats.std_words == 0.0


def test_stats_stdout_on_fixture_is_pinned():
    data = resources.files("rhesis").joinpath("data")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["stats", "--rhz", str(data.joinpath("fixture.rhz")),
                     "--conllu", str(data.joinpath("fixture.conllu"))])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == STATS_SHA256
