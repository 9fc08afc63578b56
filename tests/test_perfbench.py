"""The benchmark's use of the package: `perfbench/shims.py` wraps package
names by attribute and `perfbench/workload.py` calls the public API, so a
rename or a deletion in the package breaks the traced benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["convergence-l4", "evolve-l3", "infsup-l4"])
def test_traced_smoke_pass_runs_and_passes_its_checks(workload):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "perfbench/workload.py", workload, "1", "--trace", "--smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert record["checks"]
    failed = {name: c for name, c in record["checks"].items() if not c["passed"]}
    assert failed == {}
