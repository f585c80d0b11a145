// Checkpoint overhead guard: edges/sec with crash-safe snapshots off vs.
// on (TRICKPT every N edges, atomic rename + retained generation). The
// snapshot cadence is the production default (10M edges) clamped to a
// quarter of the bench stream so even small-scale runs write several
// generations. Also re-checks the headline invariant end to end: enabling
// checkpointing must not move a single bit of the estimates.
//
// Knobs on top of the standard bench env vars:
//   TRISTREAM_BENCH_R       estimators for tsb/bulk        (default 4096)
//   TRISTREAM_BENCH_THREADS tsb worker threads             (default 4)
//   TRISTREAM_BENCH_EVERY   checkpoint cadence in edges    (default 10M,
//                           clamped to edges/4)
//
// Output: human-readable table on stderr, one JSON document on stdout.
// Exits nonzero when checkpointing perturbs any estimate -- CI treats that
// as a hard failure, not a perf regression.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckpt/checkpoint.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "stream/edge_stream.h"
#include "util/logging.h"

namespace {

using namespace tristream;

struct Measurement {
  std::string algo;
  double off_meps = 0.0;
  double on_meps = 0.0;
  double overhead_pct = 0.0;           // at the (clamped) bench cadence
  std::uint64_t checkpoints = 0;       // snapshots per checkpointed run
  double checkpoint_seconds = 0.0;     // median wall time inside snapshots
  /// The number the guard asserts on: per-snapshot cost amortized over the
  /// *production* cadence (10M edges). The bench cadence is clamped way
  /// down so small scales still exercise rotation, which inflates the raw
  /// overhead figure far beyond what a real run pays.
  double production_overhead_pct = 0.0;
  bool bit_identical = false;
};

/// Median-of-trials run; when `checkpoint_path` is non-empty, snapshots
/// every `every` edges. Returns the final triangle estimate (identical
/// across trials: fixed seed).
double RunMode(const std::string& algo, const engine::EstimatorConfig& config,
               const graph::EdgeList& stream,
               const std::string& checkpoint_path, std::uint64_t every,
               int trials, double* meps_out, std::uint64_t* checkpoints_out,
               double* ckpt_seconds_out) {
  std::vector<double> seconds;
  std::vector<double> ckpt_seconds;
  double estimate = 0.0;
  std::uint64_t checkpoints = 0;
  for (int trial = 0; trial < trials; ++trial) {
    auto estimator = engine::MakeEstimator(algo, config);
    TRISTREAM_CHECK(estimator.ok()) << estimator.status();
    engine::SessionOptions options;
    options.checkpoint_path = checkpoint_path;
    options.checkpoint_every_edges = checkpoint_path.empty() ? 0 : every;
    engine::StreamEngine eng(options);
    stream::MemoryEdgeStream source(stream);
    WallTimer timer;
    const Status streamed = eng.Run(**estimator, source);
    TRISTREAM_CHECK(streamed.ok()) << streamed;
    seconds.push_back(timer.Seconds());
    ckpt_seconds.push_back(eng.metrics().checkpoint_seconds);
    checkpoints = eng.metrics().checkpoints;
    estimate = (*estimator)->EstimateTriangles();
  }
  const double median = Median(seconds);
  *meps_out = median > 0.0
                  ? static_cast<double>(stream.size()) / median / 1e6
                  : 0.0;
  *checkpoints_out = checkpoints;
  *ckpt_seconds_out = Median(ckpt_seconds);
  return estimate;
}

}  // namespace

int main() {
  using namespace tristream::bench;
  const std::uint64_t r = EnvU64("TRISTREAM_BENCH_R", 4096);
  const auto threads =
      static_cast<std::uint32_t>(EnvU64("TRISTREAM_BENCH_THREADS", 4));
  const int trials = BenchTrials();

  const auto instance = MakeInstance(gen::DatasetId::kDblp);
  const std::uint64_t edges = instance.stream.size();
  // Production cadence, clamped so small bench scales still rotate
  // several generations instead of never checkpointing at all.
  std::uint64_t every = EnvU64("TRISTREAM_BENCH_EVERY", 10000000);
  if (every > edges / 4) every = edges / 4;
  if (every == 0) every = 1;

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string ckpt_path =
      std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
      "/bench_checkpoint_overhead.trickpt";

  std::fprintf(stderr,
               "checkpoint overhead bench: snapshots off vs every %llu edges\n"
               "dataset=dblp edges=%llu r=%llu threads=%u trials=%d\n\n",
               static_cast<unsigned long long>(every),
               static_cast<unsigned long long>(edges),
               static_cast<unsigned long long>(r), threads, trials);
  std::fprintf(stderr, "%6s | %10s | %10s | %9s | %6s | %9s | %9s | %s\n",
               "algo", "off M e/s", "on M e/s", "overhead", "snaps",
               "snap time", "at 10M", "bit-identical");

  std::vector<Measurement> results;
  bool all_identical = true;
  for (const char* algo : {"tsb", "bulk"}) {
    engine::EstimatorConfig config;
    config.num_estimators = r;
    config.num_threads = threads;
    config.seed = BenchSeed() * 7919 + 29;
    Measurement m;
    m.algo = algo;
    std::uint64_t off_checkpoints = 0;
    double off_ckpt_seconds = 0.0;
    const double off_estimate =
        RunMode(algo, config, instance.stream, "", every, trials, &m.off_meps,
                &off_checkpoints, &off_ckpt_seconds);
    const double on_estimate =
        RunMode(algo, config, instance.stream, ckpt_path, every, trials,
                &m.on_meps, &m.checkpoints, &m.checkpoint_seconds);
    m.overhead_pct =
        m.off_meps > 0.0 ? (m.off_meps / m.on_meps - 1.0) * 100.0 : 0.0;
    if (m.checkpoints > 0 && m.off_meps > 0.0) {
      const double per_snapshot = m.checkpoint_seconds / m.checkpoints;
      const double seconds_per_10m = 10.0 / m.off_meps;  // 10M edges
      m.production_overhead_pct = per_snapshot / seconds_per_10m * 100.0;
    }
    m.bit_identical = off_estimate == on_estimate;
    all_identical = all_identical && m.bit_identical;
    results.push_back(m);
    std::fprintf(stderr,
                 "%6s | %10.2f | %10.2f | %8.2f%% | %6llu | %8.4fs | %8.3f%% "
                 "| %s\n",
                 m.algo.c_str(), m.off_meps, m.on_meps, m.overhead_pct,
                 static_cast<unsigned long long>(m.checkpoints),
                 m.checkpoint_seconds, m.production_overhead_pct,
                 m.bit_identical ? "yes" : "NO -- BUG");
  }
  std::remove(ckpt_path.c_str());
  std::remove(ckpt::PreviousGenerationPath(ckpt_path).c_str());

  std::printf("{\n");
  std::printf("  \"bench\": \"checkpoint_overhead\",\n");
  std::printf("  \"dataset\": \"dblp\",\n");
  std::printf("  \"edges\": %llu,\n",
              static_cast<unsigned long long>(edges));
  std::printf("  \"checkpoint_every_edges\": %llu,\n",
              static_cast<unsigned long long>(every));
  std::printf("  \"trials\": %d,\n", trials);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::printf("    {\"algo\": \"%s\", \"off_meps\": %.4f, "
                "\"on_meps\": %.4f, \"overhead_pct\": %.4f, "
                "\"checkpoints\": %llu, \"checkpoint_seconds\": %.6f, "
                "\"production_overhead_pct\": %.4f, "
                "\"bit_identical\": %s}%s\n",
                m.algo.c_str(), m.off_meps, m.on_meps, m.overhead_pct,
                static_cast<unsigned long long>(m.checkpoints),
                m.checkpoint_seconds, m.production_overhead_pct,
                m.bit_identical ? "true" : "false",
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return all_identical ? 0 : 1;
}
