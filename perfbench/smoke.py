"""Smoke check of the benchmark itself, in seconds.

    python3 perfbench/smoke.py

Runs `run.py --smoke` (levels 0-1, 5 Euler steps) on every workload of
BENCHMARK.json, untraced and traced, and checks that each run exits 0,
passes its correctness checks and ends with a result line that names
exactly the metrics of BENCHMARK.json with their units.  Then it runs
the benchmark in a directory holding only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"checks: attempted {result['attempted']}, failed {result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"metrics {sorted(set(got) ^ set(wanted))} differ from BENCHMARK.json")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        errors.append("a metric value is not a number")
    return errors


def check_without_sources(spec):
    """The benchmark must refuse to run where the fsifem sources are missing."""
    with tempfile.TemporaryDirectory(prefix=".smoke-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["ran without the fsifem sources"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            failures += bool(errors)
            print(f"{workload} trace={trace}: {'; '.join(errors) or 'ok'}")
    errors = check_without_sources(spec)
    failures += bool(errors)
    print(f"without sources: {'; '.join(errors) or 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
