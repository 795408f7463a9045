"""In-memory span recorder and the wrappers that trace rhesis from outside.

A span is one call into a layer: its ``module.function`` name, start and end
on the ``perf_counter`` clock, the span that was open when it started, the
sentence it worked on (when its first argument is a sentence; for
``cli.main``, the command), counts of the work it did, and the factor that
turns its seconds into nominal seconds (see ``clock``).  Spans stay in
memory until the run ends, then go out as JSON Lines.  A layer's self time
is its duration minus that of its child spans; the calls are sequential, so
children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from rhesis.span import text_measure


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str, sid: str | None = None):
        """Record the enclosed block; yields the dict to put counts in."""
        record = {
            "id": len(self.spans),
            "pass": self.pass_id,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "sid": sid,
            "counts": {},
            "scale": 1.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` with each call recorded as a span named ``name``.

        ``count(args, kwargs, result)`` returns the call's work counts; it
        runs after the span has ended.
        """

        def traced(*args, **kwargs):
            sid = getattr(args[0], "sent_id", None) if args else None
            with self.span(name, sid) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return traced

    def pass_spans(self, pass_id: int) -> list[dict]:
        return [s for s in self.spans if s["pass"] == pass_id]

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def duration(span: dict) -> float:
    """A span's length in nominal seconds."""
    return (span["end"] - span["start"]) * span["scale"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name, in nominal seconds."""
    child = [0.0] * len(spans)
    index = {s["id"]: k for k, s in enumerate(spans)}
    for s in spans:
        if s["parent"] in index:
            child[index[s["parent"]]] += duration(s)
    out: dict[str, float] = {}
    for k, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + duration(s) - child[k]
    return out


def totals(spans: list[dict], name: str, key: str) -> float:
    """Sum of one count over the spans named ``name``."""
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def coverage(spans: list[dict], root: str) -> float:
    """Share of the ``root`` spans' time that their child spans cover."""
    roots = {s["id"]: duration(s) for s in spans if s["name"] == root}
    covered = sum(duration(s) for s in spans if s["parent"] in roots)
    return covered / sum(roots.values())


def _oversized(seg, span) -> int:
    return sum(1 for r in seg.rhesis if text_measure(r.text, span) > span.max_chars)


def _scores(args, kwargs, seg) -> dict:
    sentence, table = args[0], args[1]
    missing = sum(1 for r in seg.rhesis if table.get(sentence.sent_id, r.start, r.end) is None)
    return {"tokens": seg.token_count, "units": len(seg.rhesis), "epsilon": missing}


# The public functions the CLI calls: (module, function) -> count function.
TRACED = {
    ("config", "load_config"): None,
    ("scoring", "read_weights"): None,
    ("dataset", "load_scores"): lambda a, k, r: {"rows": len(r)},
    ("corpus", "parse_conllu"): lambda a, k, r: {"tokens": sum(len(s) for s in r)},
    ("corpus", "parse_gold"): None,
    ("corpus", "align_gold"): None,
    ("cascade", "cascade_segment"): lambda a, k, r: {"oversized": _oversized(r, a[1].span)},
    ("cascade", "regroup"): lambda a, k, r: {"before": len(a[1].rhesis), "after": len(r.rhesis)},
    ("scoring", "segment_best"): lambda a, k, r: {
        "tokens": r.token_count,
        "oversized": _oversized(r, a[2]),
    },
    ("dataset", "segment_by_scores"): _scores,
    ("render", "render"): lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    ("evaluate", "rhesis_precision"): None,
    ("evaluate", "boundary_prf"): None,
    ("evaluate", "length_stats"): None,
    ("dataset", "export_candidates"): lambda a, k, r: {"candidates": len(r)},
    ("dataset", "candidates_to_tsv"): None,
    ("evolve", "evolve"): lambda a, k, r: {
        "genomes": a[1].population * (a[1].generations + 1)
    },
}


@contextmanager
def traced_cli(recorder: Recorder):
    """Route the CLI's calls into each layer through span wrappers.

    Each traced function is replaced both where the CLI looks it up and in
    its defining module, and restored on exit.
    """
    cli = importlib.import_module("rhesis.cli")
    patched = []
    try:
        for (module_name, fname), count in TRACED.items():
            module = importlib.import_module(f"rhesis.{module_name}")
            original = getattr(module, fname)
            wrapper = recorder.wrap(f"{module_name}.{fname}", original, count)
            for target in (module, cli):
                if getattr(target, fname, None) is original:
                    patched.append((target, fname, original))
                    setattr(target, fname, wrapper)
        yield
    finally:
        for target, fname, original in reversed(patched):
            setattr(target, fname, original)
