#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

    python3 perfbench/steadiness.py --workload NAME [--seeds 10] [--seconds 10]

Runs run.py once per seed (1..N) on one workload and prints, for each
end-to-end metric, the median of the N values, their quartile spread
((Q3 - Q1) / median) and the metric's bound from BENCHMARK.json. A spread
should stay below a third of its bound (setup_s is exempt: it is compared
only by its median).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        done = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    for name, series in values.items():
        spread = run.quartile_spread(series)
        bound = bounds.get(name, float("nan"))
        print(f"{name:18s} median {statistics.median(series):10.4g}  "
              f"spread {spread:6.3f}  bound {bound:.2f}  "
              f"{'ok' if spread < bound / 3 or name == 'setup_s' else 'WIDE'}")


if __name__ == "__main__":
    main()
