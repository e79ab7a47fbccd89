"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload verify --seconds 25

Runs the benchmark once per seed 1..10, one process at a time, and prints
for each metric its median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print("    " + proc.stderr.strip().splitlines()[0], flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{args.workload} {name}: median {med:.4f}, IQR/median {spread:.3f}, "
              f"min {min(vals):.4f}, max {max(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
