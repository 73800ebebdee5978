"""Run a workload on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload adas-hires --runs 10 \
        [--first-seed 1] [--seconds 30] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median.  The table is also written to
``.perfbench_out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread_table(runs):
    """Per metric: values, median, quartiles and IQR as a share of the median."""
    table = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)

    table = spread_table(runs)
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, row in table.items():
        print(f"{name:<32} {row['median']:>12.5g} {row['q1']:>12.5g} "
              f"{row['q3']:>12.5g} {row['spread']:>8.3f}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(table, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
