#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload, traced and not.

Run from the repository root (about a minute):

    python3 bench/selftest.py

Each run must exit 0 and end with a JSON line whose metrics are exactly the
ones BENCHMARK.json lists for that mode, with the same units, with no
failed operation.  A copy of the benchmark without the rhesis sources must
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                "--scale", "0.1"], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {proc.stderr[-800:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                        f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    if "failed_share = 0 " not in proc.stdout:
        problems.append(f"{where}: failed_share is not 0")
    return problems


def check_bare_copy() -> list[str]:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "long", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_copy()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_workload(spec, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
