"""Output formats: gold-style text, line-delimited records, HTML fragment."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import Segmentation

__all__ = ["RenderOptions", "render_text", "render_records", "render_html", "render"]

_FORMATS = ("txt", "records", "html")


@dataclass(frozen=True, slots=True)
class RenderOptions:
    format: str = "txt"
    html_class_prefix: str = "rhesis"
    include_ids: bool = False

    def __post_init__(self) -> None:
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")


def render_text(segs: list[Segmentation]) -> str:
    """Gold text format: one rhesis per line, blank line after each sentence.

    A rhesis that begins with ``#`` or ``\\`` gets one leading ``\\``, so it
    is not read back as a comment or a ``#doc`` line; ``parse_gold`` strips it.
    """
    parts = []
    for seg in segs:
        for r in seg.rhesis:
            if r.text.startswith(("#", "\\")):
                parts.append("\\")
            parts.append(r.text)
            parts.append("\n")
        parts.append("\n")
    return "".join(parts)


def render_records(segs: list[Segmentation]) -> str:
    """One JSON record per rhesis: sentence_id, start, end, text."""
    lines = []
    for seg in segs:
        for r in seg.rhesis:
            lines.append(
                json.dumps(
                    {
                        "sentence_id": seg.sentence_id,
                        "start": r.start,
                        "end": r.end,
                        "text": r.text,
                    },
                    ensure_ascii=False,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_html(segs: list[Segmentation], opts: RenderOptions = RenderOptions("html")) -> str:
    """HTML fragment: a block per sentence, a no-break inline span per rhesis.

    The nowrap hint keeps a rendering engine from breaking a line inside a
    unit of meaning; ids (when enabled) are "<sentence_id>-r<k>" so a reader
    can address units individually.  Units are joined by the sentence's own
    spacing, so a joint without a space shows none; a segmentation built
    through the ``Segmentation`` constructor knows no sentence, and its
    units are joined by one space.
    """
    prefix = opts.html_class_prefix
    lines = []
    for seg in segs:
        sentence = seg._sentence
        spans = []
        for k, r in enumerate(seg.rhesis, start=1):
            if k > 1 and sentence is None:
                spans.append(" ")
            elif k > 1:  # the sentence's text between the previous unit and this one
                joint = slice(sentence.ends[r.start - 2], sentence.starts[r.start - 1])
                spans.append(sentence.text[joint])
            ident = f' id="{_escape(seg.sentence_id)}-r{k}"' if opts.include_ids else ""
            spans.append(
                f'<span class="{prefix}"{ident} style="white-space: nowrap">'
                f"{_escape(r.text)}</span>"
            )
        lines.append(f'<p class="{prefix}-sentence">{"".join(spans)}</p>')
    return "\n".join(lines) + ("\n" if lines else "")


def render(segs: list[Segmentation], opts: RenderOptions) -> str:
    """Dispatch on the configured output format."""
    if opts.format == "txt":
        return render_text(segs)
    if opts.format == "records":
        return render_records(segs)
    return render_html(segs, opts)
