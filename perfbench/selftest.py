#!/usr/bin/env python3
"""Self-test of the benchmark: every workload briefly, guards on.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload and each ``--trace`` mode it runs ``perfbench/run.py``
for one second and checks that the run exits 0, that its last line is
the result object with exactly the metrics ``BENCHMARK.json`` lists (with
the same units), that every cell passed, and that the tracer found every
binding site.  It then copies ``BENCHMARK.json`` and ``perfbench/`` into
a directory with nothing else and checks that the benchmark refuses to
run there.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: cells failed: {result}")
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {got}")
    if any(line.startswith("trace: binding sites not found") for line in lines):
        problems.append(f"{label}: tracer missed binding sites")
    print(f"ok {label}: {result['attempted']} cells")
    return problems


def check_bare_directory(workload: str) -> list[str]:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the program beside it"]
    print("ok bare directory refused")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
