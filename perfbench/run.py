#!/usr/bin/env python3
"""The tristream benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py [--workload lj-count|serve-feeds|churn-dynamic|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It builds perfbench/ (which builds the
library from the repository's sources) into $CARGO_TARGET_DIR or
.bench_build, makes the workload's input from --seed outside the timed
process (cached by dataset, scale, seed and churn), runs the timed process
perfbench_run, and prints every metric by name with its unit. The last line
of output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is nonzero when any answer check fails. See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Each workload's input recipe (the `generate` command's dataset, scale and
# churn), how many inputs one run cycles through, and the relative-error
# tolerance of its answer check. Tolerances are 5 root-mean-square errors
# measured over 24 seeds with calibrate.py (README.md has the figures);
# serve-feeds is checked by bit-identity instead. churn-dynamic cycles
# through 6 inputs because its cost depends on each collaboration graph's
# cliques, which vary more from seed to seed than a run's own noise.
WORKLOADS = {
    "lj-count": {"dataset": "livejournal", "scale": 0.05, "churn": 0.0,
                 "inputs": 1, "tolerance": 0.27},
    "serve-feeds": {"dataset": "livejournal", "scale": 0.05, "churn": 0.0,
                    "inputs": 1, "tolerance": None},
    "churn-dynamic": {"dataset": "dblp", "scale": 0.1, "churn": 0.2,
                      "inputs": 6, "tolerance": 0.02},
}
# --tiny runs the same workloads on small inputs (the benchmark's tests).
TINY_SCALE = {"livejournal": 0.002, "dblp": 0.01}

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_meps", "Meps"),
    ("finish_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("result_age_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("stream.read_s", "s"),
    ("stream.batches", "count"),
    ("dedup.self_s", "s"),
    ("dedup.offered", "count"),
    ("dedup.admitted", "count"),
    ("dedup.admit_ratio", "ratio"),
    ("engine.self_s", "s"),
    ("engine.steps", "count"),
    ("core.absorb_s", "s"),
    ("core.flush_s", "s"),
    ("core.estimate_s", "s"),
    ("core.state_mb", "MB"),
    ("core.bulk_1t_meps", "Meps"),
    ("ckpt.saves", "count"),
    ("ckpt.save_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("serve.accepted", "count"),
    ("serve.refused", "count"),
    ("serve.failed", "count"),
    ("serve.session_compute_s", "s"),
    ("serve.session_io_s", "s"),
    ("feed.source_s", "s"),
    ("feed.query_wait_s", "s"),
    ("feed.blocked_s", "s"),
    ("feed.reconnects", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.prediction_ok", "bool"),
]

# The ingest-thread layers whose self times add up to a pass's wall time.
INGEST_LAYERS = ["stream.read_s", "dedup.self_s", "engine.self_s",
                 "core.absorb_s", "core.flush_s", "core.estimate_s"]

# A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10

RUN_TIMEOUT_S = 160


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- stats

def percentile(values, p):
    """The p-th percentile (0 < p < 100), interpolating between ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_supported(n, p):
    """True when n samples leave at least SAMPLES_BEYOND above the p-th."""
    return n * (100.0 - p) / 100.0 >= SAMPLES_BEYOND


def quartile_spread(values):
    """(Q3 - Q1) / median, with Python's default quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------- build

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the benchmark's binaries; returns their dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no tristream sources next to perfbench/;"
                         " run from the root of a checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "perfbench_gen", "perfbench_run", "perfbench_transparency"],
                   check=True, stdout=sys.stderr)
    return out


def make_input(binaries, dataset, scale, churn, seed):
    """Generates (or reuses) the stream and its exact triangle count."""
    cache = binaries / "perfbench-inputs"
    cache.mkdir(parents=True, exist_ok=True)
    key = f"{dataset}-scale{scale}-seed{seed}-churn{churn}"
    stream, truth = cache / f"{key}.tris", cache / f"{key}.json"
    if not (stream.is_file() and truth.is_file()):
        command = [str(binaries / "perfbench_gen"), "--dataset", dataset,
                   "--scale", str(scale), "--seed", str(seed),
                   "--output", str(stream), "--truth", str(truth)]
        if churn > 0:
            command += ["--churn", str(churn)]
        subprocess.run(command, check=True, stdout=sys.stderr)
    return stream, json.loads(truth.read_text())


# ------------------------------------------------------------ workloads

def run_workload(binaries, name, seed, seconds, trace, tiny, inject_failure):
    """Runs perfbench_run once; returns its raw samples (None on a crash)."""
    spec = WORKLOADS[name]
    scale = TINY_SCALE[spec["dataset"]] if tiny else spec["scale"]
    count = spec["inputs"]
    inputs = [make_input(binaries, spec["dataset"], scale, spec["churn"],
                         seed * count + i) for i in range(count)]
    scratch = binaries / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    tolerance = spec["tolerance"]
    command = [str(binaries / "perfbench_run"), "--workload", name,
               "--inputs", ",".join(str(stream) for stream, _ in inputs),
               "--triangles",
               ",".join(str(truth["triangles"]) for _, truth in inputs),
               "--tolerance", str(tolerance if tolerance is not None else 1.0),
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--scratch", str(scratch),
               "--inject-failure", "1" if inject_failure else "0"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: {name} exited {done.returncode} without a result")
        return None
    return json.loads(lines[-1])


def end_to_end(raw):
    """The end-to-end metrics from one run's samples, plus notes."""
    queries = raw["query_ms"]
    notes = [f"query samples = {len(queries)}"]
    # The p90 is reported when one pass alone supports it, so what the
    # metric means never depends on how many passes fit in a run.
    per_pass = len(queries) / len(raw["wall_s"])
    if percentile_supported(per_pass, 90):
        p90 = percentile(queries, 90)
    else:
        p90 = statistics.median(queries)
        notes.append(f"query_p90_ms: a pass gives {per_pass:.0f} queries and "
                     f"p90 needs {SAMPLES_BEYOND * 10}, so it reports the "
                     f"median")
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_meps": statistics.median(raw["throughput_meps"]),
        "finish_ms": statistics.median(raw["finish_ms"]),
        "query_p50_ms": statistics.median(queries),
        "query_p90_ms": p90,
        "result_age_p50_ms": statistics.median(raw["age_ms"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, notes


def per_layer(name, raw):
    """The per-layer metrics from one traced run, plus the prediction."""
    layers = raw["layers"]
    metrics = {}
    for metric, _ in PER_LAYER:
        values = layers.get(metric)
        metrics[metric] = statistics.median(values) if values else 0.0
    if metrics["dedup.offered"] > 0:
        metrics["dedup.admit_ratio"] = (metrics["dedup.admitted"] /
                                        metrics["dedup.offered"])
    wall = metrics["trace.wall_s"]
    if name == "serve-feeds":
        share = metrics["serve.session_compute_s"] / wall if wall else 0.0
        holds = share < 0.5
        note = (f"prediction: core is a minority of serve-feeds: "
                f"{'holds' if holds else 'FAILS'} (session compute is "
                f"{100 * share:.1f}% of feed-thread wall)")
    else:
        expected = {"lj-count": "core.absorb_s",
                    "churn-dynamic": "core.estimate_s"}[name]
        largest = max(INGEST_LAYERS, key=lambda layer: metrics[layer])
        holds = largest == expected
        shares = ", ".join(f"{layer} {100 * metrics[layer] / wall:.1f}%"
                           for layer in INGEST_LAYERS) if wall else ""
        note = (f"prediction: {expected} is the largest layer of {name}: "
                f"{'holds' if holds else f'FAILS, {largest} is'} ({shares})")
    metrics["trace.prediction_ok"] = 1.0 if holds else 0.0
    return metrics, [note]


def report(name, raw, trace):
    """Prints one workload's metrics and result line; True when correct."""
    if trace:
        metrics, notes = per_layer(name, raw)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(raw)
        units = dict(END_TO_END)
    for metric, value in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {units[metric]}")
    for note in notes:
        print(f"{name}: {note}")
    for failure in raw["failures"]:
        print(f"{name}: FAILED: {failure}")
    correct = raw["ops_failed"] == 0
    print(f"{name}: ops = {raw['ops']}, ops_failed = {raw['ops_failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, raw["ops"]),
        "failed": raw["ops_failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt the expected answers (tests only)")
    args = parser.parse_args()
    binaries = build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        started = time.monotonic()
        raw = run_workload(binaries, name, args.seed, args.seconds,
                           args.trace == 1, args.tiny, args.inject_failure)
        if raw is None or not raw["wall_s"]:
            if raw is not None:
                for failure in raw["failures"]:
                    log(f"{name}: FAILED: {failure}")
            return 1
        all_correct &= report(name, raw, args.trace == 1)
        log(f"perfbench: {name} took {time.monotonic() - started:.1f} s")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
