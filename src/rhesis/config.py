"""Engine configuration: INI files, the RHESIS_CONFIG variable, defaults.

A config file has up to four sections — [span], [cascade], [tree] and
[evo].  Tree weights are not config: they come from a weight file (see
``scoring.read_weights``).  Word and label lists are comma- or
whitespace-separated; the punctuation list is whitespace-separated (so the
comma can appear as an item).  Anything not set falls back to the built-in
defaults, and unknown sections or keys are rejected rather than ignored.

The config dataclasses are the only place a key, its type and its default
are stated: the accepted keys, their parsing and the effective-config echo
are all derived from ``dataclasses.fields``.
"""

from __future__ import annotations

import configparser
import os
import re
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .cascade import CascadeConfig
from .errors import FormatError
from .evolve import EvoConfig
from .span import SpanConfig

__all__ = ["EngineConfig", "load_config", "effective_config"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Everything a run needs.  ``span`` governs every method: the cascade's
    own span is rebound to it."""

    span: SpanConfig = field(default_factory=SpanConfig)
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    evo: EvoConfig = field(default_factory=EvoConfig)
    score_epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.score_epsilon < 1.0:
            raise ValueError(f"score_epsilon must be in (0, 1), got {self.score_epsilon}")
        if self.cascade.span != self.span:
            object.__setattr__(self, "cascade", replace(self.cascade, span=self.span))


# INI section -> the EngineConfig attribute it fills.  Every field of that
# attribute's dataclass is a key of the section under its own name, except:
# [cascade] punctuation fills cut_punctuation and CascadeConfig.span is not a
# key.  [tree] holds only score_epsilon, which belongs to EngineConfig itself
# (attribute "").
_SECTIONS = {
    "span": ("span", SpanConfig),
    "cascade": ("cascade", CascadeConfig),
    "evo": ("evo", EvoConfig),
}
_RENAMED = {"cut_punctuation": "punctuation"}
_NOT_KEYS = {"span"}

# section -> INI key -> (EngineConfig attribute, field name, type of the default)
_KEYS = {
    section: {
        _RENAMED.get(f.name, f.name): (attr, f.name, type(f.default))
        for f in fields(cls)
        if f.name not in _NOT_KEYS
    }
    for section, (attr, cls) in _SECTIONS.items()
}
_KEYS["tree"] = {"score_epsilon": ("", "score_epsilon", float)}


def _parse(section: str, key: str, raw: str, kind: type):
    if kind is frozenset:
        items = raw.split() if key == "punctuation" else re.split(r"[,\s]+", raw)
        return frozenset(t for t in items if t)
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise FormatError(f"[{section}] {key} must be {what}, got {raw!r}") from None


def load_config(path: str | os.PathLike | None = None) -> EngineConfig:
    """Load a config file, or the defaults when none is named.

    Resolution order: the explicit ``path`` argument, then the RHESIS_CONFIG
    environment variable, then built-in defaults.
    """
    if path is None:
        path = os.environ.get("RHESIS_CONFIG") or None
    if path is None:
        return EngineConfig()
    # "=" is the only delimiter and keys keep their case, so "max_chars: 45"
    # and "Max_Chars = 45" are refused rather than read as max_chars
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # one leading BOM is dropped
        parser.read_string(text)
    except UnicodeDecodeError as exc:
        raise FormatError(f"config {path}: not valid UTF-8: {exc}") from None
    except configparser.Error as exc:
        raise FormatError(f"config {path}: {exc}") from None

    unknown = set(parser.sections()) - set(_KEYS)
    if unknown:
        raise FormatError(f"unknown config sections: {sorted(unknown)}")
    # keyword arguments per EngineConfig attribute: only the keys the file sets
    given: dict[str, dict] = defaultdict(dict)
    for section in filter(parser.has_section, _KEYS):
        unknown = set(parser.options(section)) - set(_KEYS[section])
        if unknown:
            raise FormatError(f"unknown keys in [{section}]: {sorted(unknown)}")
        for key, raw in parser.items(section):
            attr, name, kind = _KEYS[section][key]
            given[attr][name] = _parse(section, key, raw, kind)

    span = given["span"]
    budget = span.pop("max_chars", None) if "target_chars" not in span else None
    try:
        parts = {attr: cls(**given[attr]) for attr, cls in _SECTIONS.values()}
        if budget is not None:
            parts["span"] = _with_max_chars(parts["span"], budget)
        return EngineConfig(**parts, **given[""])
    except ValueError as exc:
        raise FormatError(f"config {path}: {exc}") from None


def _with_max_chars(span: SpanConfig, max_chars: int) -> SpanConfig:
    """``span`` with the budget ``max_chars`` and its target lowered to fit: the one clamp rule."""
    return replace(span, max_chars=max_chars, target_chars=min(span.target_chars, max_chars))


def effective_config(cfg: EngineConfig) -> dict:
    """Plain-dict view of the configuration, for the CLI's echo header."""
    view = {}
    for section, keys in _KEYS.items():
        view[section] = {}
        for key, (attr, name, kind) in keys.items():
            value = getattr(getattr(cfg, attr) if attr else cfg, name)
            view[section][key] = sorted(value) if kind is frozenset else value
    return view
