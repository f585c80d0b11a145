#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py     (from the repo root)

Covers the percentile and quartile maths, BENCHMARK.json agreeing with
run.py, decorator transparency (perfbench_transparency), a small-input smoke
run of every workload traced and untraced, a forced failure that must show
in the failure count, and the refusal to run without the library's sources.
"""

import json
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

RUN_PY = str(run.BENCH_DIR / "run.py")


def run_bench(*args, cwd=None):
    """Runs run.py; returns (exit code, stdout lines)."""
    done = subprocess.run([sys.executable, RUN_PY, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


class StatsTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 90), 90.1)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)

    def test_percentile_needs_ten_samples_beyond_it(self):
        self.assertTrue(run.percentile_supported(100, 90))
        self.assertFalse(run.percentile_supported(99, 90))
        self.assertTrue(run.percentile_supported(20, 50))
        self.assertFalse(run.percentile_supported(19, 50))
        self.assertTrue(run.percentile_supported(1000, 99))
        self.assertFalse(run.percentile_supported(999, 99))

    def test_p90_needs_100_queries_in_one_pass(self):
        raw = {"setup_s": [1.0], "throughput_meps": [1.0],
               "finish_ms": [1.0], "age_ms": [1.0], "peak_rss_mb": 1.0,
               "wall_s": [1.0], "query_ms": [float(i) for i in range(1, 100)]}
        metrics, _ = run.end_to_end(raw)
        self.assertEqual(metrics["query_p90_ms"], 50.0)
        raw["query_ms"].append(100.0)
        metrics, _ = run.end_to_end(raw)
        self.assertAlmostEqual(metrics["query_p90_ms"], 90.1)
        raw["wall_s"].append(1.0)  # the same 100 queries over two passes
        metrics, _ = run.end_to_end(raw)
        self.assertAlmostEqual(metrics["query_p90_ms"], 50.5)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(run.quartile_spread([5.0] * 10), 0.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class BinariesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binaries = run.build()

    def test_decorators_are_transparent(self):
        scratch = self.binaries / "perfbench-scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(
            [str(self.binaries / "perfbench_transparency"), str(scratch)],
            stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertEqual(done.stdout.count("identical"), 3, done.stdout)

    def test_smoke_every_workload(self):
        for trace, names in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run_bench("--workload", workload, "--tiny",
                                            "--seconds", "0.5",
                                            "--trace", trace)
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]),
                                     [name for name, _ in names])
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_forced_failure_is_counted_and_fails_the_command(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run_bench("--workload", workload, "--tiny",
                                        "--seconds", "0.5",
                                        "--inject-failure")
                self.assertNotEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_the_library_sources(self):
        bare = self.binaries / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lj-count",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
