"""Timings in nominal seconds, corrected for the machine's changing speed.

On a shared machine the same pure-Python work can take a quarter more or
less from one moment to the next.  So the benchmark runs a fixed reference
workload after every CHUNK_S or so of timed work, and scales the times in
that chunk by NOMINAL_S over the mean of the reference times just before and
just after it.  A nominal second is thus the time the work would take on a
machine that runs the reference in NOMINAL_S.  The reference does the same
kind of work as the library (small tuples, dict updates, string formatting,
function calls) and is part of the benchmark, so it is the same on both
commits of a comparison.  Every timing keeps its raw seconds too, so the
run can print the program's own wall time beside the nominal figures.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.010
CHUNK_S = 0.08
_LOOPS = 12000


def _step(i: int) -> int:
    return (i * 7) % 11


def reference() -> int:
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(_LOOPS):
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + 1
        total += len(f"{i}-{i % 13}") + _step(i)
    return total + len(table)


def _timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Timing:
    """One timed stretch: raw seconds, and its factor once its chunk is closed."""

    __slots__ = ("raw", "factor")

    def __init__(self, raw: float):
        self.raw = raw
        self.factor = float("nan")

    def seconds(self, nominal: bool = True) -> float:
        return self.raw * self.factor if nominal else self.raw


class Clock:
    """Hands out timings and closes them chunk by chunk."""

    def __init__(self):
        self._last = _timed_reference()
        self._pending: list[tuple[Timing, list[dict]]] = []
        self._pending_s = 0.0

    def add(self, seconds: float, spans: list[dict] = ()) -> Timing:
        """A timing of ``seconds``; the trace ``spans`` recorded inside it get
        its factor as their ``scale`` when the chunk is closed."""
        timing = Timing(seconds)
        self._pending.append((timing, spans))
        self._pending_s += seconds
        if self._pending_s >= CHUNK_S:
            self.flush()
        return timing

    def flush(self) -> None:
        """Close the current chunk: run the reference and set the factors."""
        if not self._pending:
            return
        now = _timed_reference()
        factor = 2 * NOMINAL_S / (self._last + now)
        self._last = now
        for timing, spans in self._pending:
            timing.factor = factor
            for record in spans:
                record["scale"] = factor
        self._pending = []
        self._pending_s = 0.0
