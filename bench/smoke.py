#!/usr/bin/env python3
"""Smoke test for the benchmark itself; runs in about a minute.

    python3 bench/smoke.py

Runs every workload named in ``BENCHMARK.json`` on a tiny corpus, traced
and untraced, and checks that each run exits 0, ends with the result line
the harness promises, emits every metric ``BENCHMARK.json`` names with its
unit, and reports no failure.  It also checks that a directory holding the
benchmark without the package makes the benchmark fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seed", "1", "--seconds", "1", "--instances", "10"]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, *TINY, "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ, missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{where}: {name} is {m}, want a number in {unit}")
    if trace and got.get("error_rate", {}).get("value") != 0:
        problems.append(f"{where}: error_rate is {got.get('error_rate')}")
    return problems


def check_without_package(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's own files: must fail, no result."""
    problems = []
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for d in spec["paths"]:
            shutil.copytree(ROOT / d, bare / d, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"without the package: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
            print(f"ran {w['name']} --trace {trace}", flush=True)
    problems += check_without_package(spec)
    for p in problems:
        print("PROBLEM", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
