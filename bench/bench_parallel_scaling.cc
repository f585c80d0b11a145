// Parallel scaling sweep: ingest throughput of the sharded counter at
// 1..8 threads, with every row's speedup quoted against the 1-thread row
// at equal batch size.
//
// This is an engineering benchmark (no paper figure).
//
// The default operating point uses small batches on purpose: that is the
// regime where the per-batch dispatch cost (wakeup, barrier) dominates
// per-edge work. Crank TRISTREAM_BENCH_BATCH up to measure the
// compute-bound regime instead.
//
// Output: human-readable table on stderr, one machine-readable JSON
// document on stdout (for BENCH_*.json trajectory tracking). Extra knobs
// on top of the standard bench env vars:
//   TRISTREAM_BENCH_R        total estimators        (default 4096)
//   TRISTREAM_BENCH_BATCH    shared batch size w     (default 64)
//   TRISTREAM_BENCH_THREADS  max thread count swept  (default 8)
//   TRISTREAM_BENCH_SIMD     lane-sweep dispatch     (default auto)
//
// The JSON records both the requested simd mode and the ISA it resolved
// to on this host, so trajectory diffs can tell an avx512 row from a
// scalar-fallback row.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/parallel_counter.h"
#include "engine/estimators.h"
#include "util/simd.h"

namespace {

using namespace tristream;

struct Measurement {
  std::uint32_t threads = 0;
  double median_seconds = 0.0;
  double meps = 0.0;  // million edges/second, ingest + final flush
  double speedup = 0.0;  // 1-thread row's seconds / this row's
};

Measurement RunOne(const bench::DatasetInstance& instance, std::uint64_t r,
                   std::size_t batch, std::uint32_t threads, SimdMode simd,
                   int trials) {
  std::vector<double> seconds;
  Measurement out;
  out.threads = threads;
  for (int trial = 0; trial < trials; ++trial) {
    core::ParallelCounterOptions options;
    options.num_estimators = r;
    options.num_threads = threads;
    options.seed = bench::BenchSeed() * 7919 + 13;  // fixed across rows
    options.batch_size = batch;
    options.simd = simd;
    engine::ParallelEstimator estimator(options);
    WallTimer timer;
    bench::RunThroughEngine(estimator, instance.stream, batch);
    seconds.push_back(timer.Seconds());
  }
  out.median_seconds = Median(seconds);
  if (out.median_seconds > 0.0) {
    out.meps = static_cast<double>(instance.stream.size()) /
               out.median_seconds / 1e6;
  }
  return out;
}

}  // namespace

int main() {
  using namespace tristream;
  const std::uint64_t r = bench::EnvU64("TRISTREAM_BENCH_R", 4096);
  const std::size_t batch =
      static_cast<std::size_t>(bench::EnvU64("TRISTREAM_BENCH_BATCH", 64));
  const std::uint32_t max_threads = static_cast<std::uint32_t>(
      bench::EnvU64("TRISTREAM_BENCH_THREADS", 8));
  const int trials = bench::BenchTrials();
  SimdMode simd = SimdMode::kAuto;
  if (const char* env = std::getenv("TRISTREAM_BENCH_SIMD")) {
    const auto parsed = ParseSimdMode(env);
    if (!parsed.has_value() || !ResolveSimdIsa(*parsed).has_value()) {
      std::fprintf(stderr, "bad TRISTREAM_BENCH_SIMD '%s'\n", env);
      return 1;
    }
    simd = *parsed;
  }
  const char* isa_name = SimdIsaName(*ResolveSimdIsa(simd));

  std::fprintf(stderr,
               "parallel scaling sweep: speedup vs the 1-thread row\n"
               "r=%llu batch=%zu trials=%d scale=%.3g simd=%s (isa %s)\n",
               static_cast<unsigned long long>(r), batch, trials,
               bench::BenchScale(), SimdModeName(simd), isa_name);

  const auto instance = bench::MakeInstance(gen::DatasetId::kDblp);
  std::fprintf(stderr, "dataset=dblp edges=%zu (%llu batches/run)\n\n",
               instance.stream.size(),
               static_cast<unsigned long long>(
                   (instance.stream.size() + batch - 1) / batch));
  std::fprintf(stderr, "%8s | %12s | %12s | %9s\n", "threads", "seconds",
               "Medges/s", "vs 1T");

  std::vector<Measurement> results;
  // The sweep starts at one thread, so the baseline is fixed before any
  // multi-thread row is printed.
  double best_1t_seconds = 0.0;
  for (std::uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    Measurement m = RunOne(instance, r, batch, threads, simd, trials);
    if (threads == 1) best_1t_seconds = m.median_seconds;
    m.speedup =
        m.median_seconds > 0.0 ? best_1t_seconds / m.median_seconds : 0.0;
    std::fprintf(stderr, "%8u | %12.4f | %12.2f | %8.2fx\n", m.threads,
                 m.median_seconds, m.meps, m.speedup);
    results.push_back(m);
  }

  // Machine-readable trajectory record.
  std::printf("{\n");
  std::printf("  \"bench\": \"parallel_scaling\",\n");
  std::printf("  \"dataset\": \"dblp\",\n");
  std::printf("  \"edges\": %zu,\n", instance.stream.size());
  std::printf("  \"estimators\": %llu,\n",
              static_cast<unsigned long long>(r));
  std::printf("  \"batch_size\": %zu,\n", batch);
  std::printf("  \"trials\": %d,\n", trials);
  std::printf("  \"simd\": \"%s\",\n", SimdModeName(simd));
  std::printf("  \"simd_isa\": \"%s\",\n", isa_name);
  std::printf("  \"best_1t_seconds\": %.6f,\n", best_1t_seconds);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::printf("    {\"threads\": %u, \"seconds\": %.6f, \"meps\": %.4f, "
                "\"speedup_vs_best_1t\": %.4f}%s\n",
                m.threads, m.median_seconds, m.meps, m.speedup,
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
