"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/steadiness.py [WORKLOAD ...]

Runs `run.py --trace 0` ten times on each workload (all of
BENCHMARK.json by default), with seeds 1 to 10, for `run_seconds` each,
one run at a time.  For every end-to-end metric it prints the median,
the quartiles from `statistics.quantiles(n=4)` and the interquartile
distance as a share of the median, which should stay below a third of
the metric's bound.  The last line is a JSON object of every value, to
keep as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    values, steady = {}, True
    for workload in args.workloads:
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 timeout=180, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} failed checks")
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
        values[workload] = runs
        for metric in spec["end_to_end"]:
            series = [r[metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / statistics.median(series)
            limit = metric["bound"] / 3
            ok = share < limit
            steady &= ok
            print(f"{workload:<16} {metric['name']:<14} median {statistics.median(series):.6g} "
                  f"{metric['unit']}, quartiles {q1:.6g}..{q3:.6g}, spread {share:.2%} "
                  f"(limit {limit:.2%}) {'ok' if ok else 'TOO WIDE'}")
    print(json.dumps(values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
