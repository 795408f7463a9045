"""Span policy: how long a rhesis is allowed to be.

The driving use case is subtitle-like display lines, so the default budget
is 45 characters with a preferred length of 32.  Lengths are counted in
Unicode code points of the surface text, or in whitespace-separated words
when ``count_mode`` is ``"words"``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = ["SpanConfig", "fits_span", "text_measure"]

_COUNT_MODES = ("characters", "words")
# The budget's ceiling: below it a target's distance from a measure is an int64
# for the tuner and a finite float for the tree DP's balance terms.
_MAX_BUDGET = 10**18


@dataclass(frozen=True, slots=True)
class SpanConfig:
    max_chars: int = 45
    target_chars: int = 32
    count_mode: str = "characters"

    def __post_init__(self) -> None:
        for name in ("max_chars", "target_chars"):
            _count(name, getattr(self, name))
        if self.max_chars <= 0:
            raise ValueError(f"max_chars must be positive, got {self.max_chars}")
        if self.max_chars > _MAX_BUDGET:
            raise ValueError(f"max_chars must be at most {_MAX_BUDGET:.0e}, got {self.max_chars}")
        if not 0 < self.target_chars <= self.max_chars:
            raise ValueError(
                f"target_chars must be in 1..max_chars, got {self.target_chars}"
            )
        if self.count_mode not in _COUNT_MODES:
            raise ValueError(f"count_mode must be one of {_COUNT_MODES}")


def _count(name: str, value) -> None:
    """Refuse a count that is a bool or that ``operator.index`` rejects, such as ``45.0``."""
    if not isinstance(value, bool):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def text_measure(text: str, config: SpanConfig) -> int:
    """Length of ``text`` under the configured counting mode."""
    if config.count_mode == "words":
        return len(text.split())
    return len(text)


def fits_span(text: str, config: SpanConfig) -> bool:
    """Whether ``text`` fits within the span budget."""
    return text_measure(text, config) <= config.max_chars
