"""fsifem benchmark driver.

    python3 perfbench/run.py --workload convergence-l4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it imports fsifem from `src/`
and needs nothing built.  The workloads and metric names come from
`BENCHMARK.json` at the root.  Each pass of the workload runs in a fresh
process (`workload.py`), one at a time, with BLAS threads capped at the
CPUs this process may use.  Passes repeat while another fits in
--seconds; there is always at least one.  End-to-end metrics are medians
over the passes.

With --trace 1 the passes alternate untraced and traced, at least one of
each.  The end-to-end metrics come from the untraced passes and the
per-layer metrics are medians over the traced ones; `trace.overhead_s`
is the time the tracing wrappers spend outside the calls they time.

Every pass is checked at the acceptance tolerances.  A failed check is
counted in `failed`, never dropped.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# a run must end within 180 s; no pass may start a child that could outlive this
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not produce a measurement."""


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {err}") from err


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_pass(workload, seed, traced, smoke, env, timeout):
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(seed)]
    cmd += ["--trace"] * traced + ["--smoke"] * smoke
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{workload} pass exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} pass exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def run_passes(args, env):
    """Passes of one run, each a fresh process; returns their records."""
    start = time.perf_counter()
    deadline = start + args.seconds
    passes, longest = [], 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        remaining = RUN_LIMIT_S - (t0 - start)
        if remaining <= 0:
            raise BenchmarkError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        passes.append(run_pass(args.workload, args.seed, traced, args.smoke,
                               env, remaining))
        longest = max(longest, time.perf_counter() - t0)
        complete = not args.trace or len(passes) >= 2
        if complete and time.perf_counter() + longest > deadline:
            return passes


def end_to_end(passes):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "steps_per_s": statistics.median(
            p["steps"] / (p["wall_s"] - p["setup_s"]) for p in passes),
    }


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    return values, traced[0]["absent"]


def report(spec, args, env, passes):
    """Print the human-readable lines, then the JSON result line."""
    print("env " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        **passes[0]["versions"],
    }))
    checks = [(i, name, c) for i, p in enumerate(passes, 1)
              for name, c in p["checks"].items()]
    failed = [(i, name, c) for i, name, c in checks if not c["passed"]]
    for i, p in enumerate(passes, 1):
        ok = sum(c["passed"] for c in p["checks"].values())
        print(f"pass {i} {'traced' if p['traced'] else 'untraced'}: "
              f"wall_s {p['wall_s']:.3f}, setup_s {p['setup_s']:.3f}, "
              f"peak_rss_mb {p['peak_rss_mb']:.1f}, checks {ok}/{len(p['checks'])}")
    for i, name, c in failed:
        print(f"FAILED check {name} in pass {i}: value {c['value']!r}")

    untraced = [p for p in passes if not p["traced"]]
    values = end_to_end(untraced)
    values["check_fail_frac"] = len(failed) / len(checks)
    specs = spec["end_to_end"] + [{"name": "check_fail_frac", "unit": "fraction"}]
    absent = []
    if args.trace:
        layer_values, absent = per_layer(passes)
        values.update(layer_values)
        specs = specs + spec["per_layer"]
    print(f"{args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(passes) - len(untraced)} traced passes")
    for s in specs:
        note = "  (absent: layer not reached)" if s["name"] in absent else ""
        print(f"  {s['name']:<30} {values[s['name']]:>16.6g} {s['unit']}{note}")

    emitted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in emitted},
    }))


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="levels 0-1 and 5 Euler steps, to check the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "fsifem" / "__init__.py").is_file():
        raise BenchmarkError(f"no fsifem sources under {SRC}")
    env = child_env(len(os.sched_getaffinity(0)))
    report(spec, args, env, run_passes(args, env))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(1)
