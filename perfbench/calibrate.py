#!/usr/bin/env python3
"""Measures the relative error of the checked estimates over many seeds.

    python3 perfbench/calibrate.py --workload lj-count|churn-dynamic
                                   [--seeds 24]

Runs one pass per seed (1..N), with the answer check switched off, and
prints each seed's relative error |estimate - exact| / exact, then their
mean, maximum and root-mean-square. run.py's tolerances are 5 root-mean-
square errors; README.md records the figures.
"""

import argparse
import json
import statistics
import subprocess

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lj-count", "churn-dynamic"])
    parser.add_argument("--seeds", type=int, default=24)
    args = parser.parse_args()
    binaries = run.build()
    spec = run.WORKLOADS[args.workload]
    scratch = binaries / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    errors = []
    for seed in range(1, args.seeds + 1):
        stream, truth = run.make_input(binaries, spec["dataset"],
                                       spec["scale"], spec["churn"], seed)
        done = subprocess.run(
            [str(binaries / "perfbench_run"), "--workload", args.workload,
             "--inputs", str(stream), "--triangles", str(truth["triangles"]),
             "--tolerance", "1e9", "--seed", str(seed), "--seconds", "0.001",
             "--trace", "0", "--scratch", str(scratch)],
            stdout=subprocess.PIPE, text=True, check=True)
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        error = abs(raw["estimate"] - truth["triangles"]) / truth["triangles"]
        errors.append(error)
        print(f"seed {seed:3d}: exact {truth['triangles']:9d}  "
              f"estimate {raw['estimate']:12.1f}  error {error:.4f}",
              flush=True)
    rms = statistics.fmean(e * e for e in errors) ** 0.5
    print(f"mean {statistics.fmean(errors):.4f}  max {max(errors):.4f}  "
          f"rms {rms:.4f}  5 rms {5 * rms:.4f}")


if __name__ == "__main__":
    main()
