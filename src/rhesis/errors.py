"""Exception types and warning categories shared across the package."""

from __future__ import annotations

__all__ = [
    "RhesisError",
    "ParseError",
    "StructuralError",
    "FormatError",
    "AlignmentError",
    "OversizedTokenWarning",
]


class RhesisError(Exception):
    """Base class for data and format errors raised by this package.

    A ``line`` given is kept as ``.line`` and prefixes the message as ``line N: ``.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(RhesisError):
    """Malformed CoNLL-U input (wrong column count, unreadable field)."""


class StructuralError(RhesisError):
    """A sentence's heads do not describe a valid dependency tree, or a form is blank."""


class FormatError(RhesisError):
    """Malformed gold, score-table, or configuration input."""


class AlignmentError(RhesisError):
    """Gold rhesis text cannot be matched onto the parsed sentence."""


class OversizedTokenWarning(UserWarning):
    """A single token exceeds the span and is emitted as its own rhesis."""
