// Shared plumbing for the paper-reproduction benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation section (its file comment names which). They share:
//   * environment-controlled scale knobs (the container reproduces shapes,
//     not the authors' absolute hardware numbers);
//   * dataset instantiation with exact ground truth;
//   * the trial loop measuring accuracy and wall time the way the paper
//     does (5 trials, mean/min/max relative deviation, median time).
//
// Environment variables:
//   TRISTREAM_BENCH_SCALE   fraction of the paper's dataset sizes
//                           (default 0.02; 1.0 = full paper scale)
//   TRISTREAM_BENCH_TRIALS  trials per configuration (default 5, as in
//                           the paper)
//   TRISTREAM_BENCH_SEED    base RNG seed (default 1)

#ifndef TRISTREAM_BENCH_BENCH_UTIL_H_
#define TRISTREAM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/datasets.h"
#include "graph/csr.h"
#include "graph/degree_stats.h"
#include "graph/edge_list.h"
#include "stream/edge_stream.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/timer.h"

namespace tristream {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtod(value, nullptr);
}

inline std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

inline double BenchScale() { return EnvDouble("TRISTREAM_BENCH_SCALE", 0.02); }
inline int BenchTrials() {
  return static_cast<int>(EnvU64("TRISTREAM_BENCH_TRIALS", 5));
}
inline std::uint64_t BenchSeed() { return EnvU64("TRISTREAM_BENCH_SEED", 1); }

/// Scales an estimator count the way dataset sizes are scaled, keeping the
/// paper's r/m operating points comparable. Never returns less than 256.
inline std::uint64_t ScaledR(std::uint64_t paper_r) {
  const double scaled = static_cast<double>(paper_r) * BenchScale();
  return scaled < 256.0 ? 256 : static_cast<std::uint64_t>(scaled);
}

/// A dataset instance with its exact ground truth.
struct DatasetInstance {
  gen::DatasetId id;
  graph::EdgeList stream;       // already in randomized arrival order
  graph::GraphSummary summary;  // exact n, m, Δ, τ, ζ of the instance
};

/// Builds the stand-in instance of `id` at the bench scale and computes
/// the exact statistics the accuracy columns need.
inline DatasetInstance MakeInstance(gen::DatasetId id) {
  DatasetInstance out;
  out.id = id;
  out.stream = gen::MakeDataset(id, BenchScale(), BenchSeed());
  out.summary = graph::Summarize(out.stream);
  return out;
}

/// One accuracy/timing measurement matching the paper's reporting: a set
/// of trials at a fixed estimator count.
struct TrialResult {
  DeviationSummary deviation;     // min/mean/max relative error %
  double median_seconds = 0.0;    // median wall time over trials
  double throughput_meps = 0.0;   // median million edges per second
};

/// Drives `estimator` over an in-memory stream through the unified engine
/// -- the same driver the CLI and tests use, so every bench measures the
/// production ingest path. Returns the engine's metrics for the run.
inline engine::SessionMetrics RunThroughEngine(
    engine::StreamingEstimator& estimator, const graph::EdgeList& stream,
    std::size_t batch_size = 0) {
  stream::MemoryEdgeStream source(stream);
  engine::SessionOptions options;
  options.batch_size = batch_size;
  engine::StreamEngine eng(options);
  const Status streamed = eng.Run(estimator, source);
  TRISTREAM_CHECK(streamed.ok()) << streamed;  // memory sources cannot fail
  return eng.metrics();
}

/// Runs `trials` independent seeded runs of the bulk counter with r
/// estimators over `instance`, measuring deviation against the exact τ.
inline TrialResult RunTriangleTrials(const DatasetInstance& instance,
                                     std::uint64_t r, int trials,
                                     std::size_t batch_size = 0) {
  std::vector<double> estimates;
  std::vector<double> seconds;
  for (int trial = 0; trial < trials; ++trial) {
    core::TriangleCounterOptions options;
    options.num_estimators = r;
    options.seed = BenchSeed() * 7919 + static_cast<std::uint64_t>(trial);
    options.batch_size = batch_size;
    engine::BulkEstimator estimator(options);
    WallTimer timer;
    RunThroughEngine(estimator, instance.stream);
    estimates.push_back(estimator.EstimateTriangles());
    seconds.push_back(timer.Seconds());
  }
  TrialResult result;
  result.deviation = SummarizeDeviations(
      estimates, static_cast<double>(instance.summary.triangles));
  result.median_seconds = Median(seconds);
  if (result.median_seconds > 0.0) {
    result.throughput_meps = static_cast<double>(instance.stream.size()) /
                             result.median_seconds / 1e6;
  }
  return result;
}

/// Prints the standard bench banner with the active scale knobs.
inline void PrintBanner(const char* title, const char* paper_anchor) {
  std::printf("=================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_anchor);
  std::printf("scale=%.3g  trials=%d  seed=%llu   "
              "(override via TRISTREAM_BENCH_SCALE/_TRIALS/_SEED)\n",
              BenchScale(), BenchTrials(),
              static_cast<unsigned long long>(BenchSeed()));
  std::printf("=================================================================\n");
}

/// Formats a large count with thousands separators for readability.
inline std::string Pretty(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

}  // namespace bench
}  // namespace tristream

#endif  // TRISTREAM_BENCH_BENCH_UTIL_H_
