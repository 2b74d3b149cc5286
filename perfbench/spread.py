"""Run one workload several times and print each metric's spread.

    python3 perfbench/spread.py --workload corpus --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...)
with BENCHMARK.json's run length, one run at a time, and prints for
every end-to-end metric its median, quartiles (statistics.quantiles,
n=4) and quartile distance as a share of the median, next to the bound
BENCHMARK.json fixes.  The bounds there were set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = config["run_seconds"]

    values: dict[str, list[float]] = {}
    failed_shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*config["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs are wrong\n{proc.stderr}", file=sys.stderr)
            return 1
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, "
          f"failed share {sorted(set(failed_shares))}")
    print(f"{'metric':24} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:24} {med:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{(q3 - q1) / med:8.2%} {bounds.get(name, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
