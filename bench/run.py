#!/usr/bin/env python3
"""Benchmark of the rhesis CLI and its layers on seeded synthetic corpora.

Run from the repository root:

    python3 bench/run.py --workload long --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same job with span wrappers around each layer's public functions
and reports per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the run
completed, whatever its checks found; it is 2 when the rhesis sources are
not beside this directory.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("long", "short", "train")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="corpus size factor (the self-test uses a small one)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "rhesis" / "__init__.py").is_file():
        print(f"bench: no rhesis package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports rhesis, so only once the sources are on the path

    run = harness.layers if args.trace else harness.end_to_end
    work = BENCH / "out" / args.workload
    correct, tally, metrics = run(args.workload, args.seed, args.seconds, args.scale, work)
    result = {
        "correct": correct and all(math.isfinite(value) for value, _, _ in metrics.values()),
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
