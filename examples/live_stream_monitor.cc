// Live-stream monitoring with sliding windows (paper Sec. 5.2).
//
// Real-time processing of live interaction data is the paper's headline
// use case. This example simulates an interaction stream whose community
// structure changes over time -- quiet background traffic, then a burst of
// tightly-knit (triangle-rich) activity, then quiet again -- and shows a
// sequence-based sliding-window counter tracking the windowed triangle
// density as it rises and falls, something a whole-stream counter cannot
// see by design.
//
// The plumbing is the live ingest layer, not a synthetic inline loop: a
// producer thread pushes the traffic through a small bounded
// stream::QueueEdgeStream (so a monitor that falls behind throttles the
// producer instead of buffering without bound) and the monitor side is
// the unified engine::StreamEngine driving the windowed estimator, with
// the engine's reporting hook firing the alert rows -- the same shape as
// a real deployment where the producer is a network receiver. The
// engine's return status is the queue's sticky status, so a failed feed
// exits nonzero instead of reading as a quiet one.

#include <cmath>
#include <cstdio>
#include <thread>

#include "core/sliding_window.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "stream/queue_stream.h"
#include "util/rng.h"
#include "util/types.h"

namespace {

constexpr std::uint64_t kWindow = 20000;
constexpr tristream::VertexId kBackgroundPopulation = 200000;
constexpr tristream::VertexId kBurstPopulation = 300;

// Resamples a self-loop to a neighbor id *inside* the population: bumping
// to u + 1 unconditionally would mint vertex `population` (one past the
// max id) whenever u drew the last id.
tristream::Edge RandomEdge(tristream::Rng& rng,
                           tristream::VertexId population) {
  const auto u = static_cast<tristream::VertexId>(
      rng.UniformBelow(population));
  auto v = static_cast<tristream::VertexId>(rng.UniformBelow(population));
  if (v == u) v = (v + 1) % population;
  return {u, v};
}

// Background traffic: random sparse interactions among a large population.
tristream::Edge BackgroundEdge(tristream::Rng& rng) {
  return RandomEdge(rng, kBackgroundPopulation);
}

// Burst traffic: interactions inside a small, tight community.
tristream::Edge BurstEdge(tristream::Rng& rng) {
  return RandomEdge(rng, kBurstPopulation);
}

// The producer side of the feed: three traffic phases pushed through the
// queue, then a clean close. (A real producer would Close with an error
// status when its upstream dies -- that is what keeps a broken feed from
// reading as a quiet one.)
void ProduceTraffic(tristream::stream::QueueEdgeStream& feed) {
  tristream::Rng traffic(17);
  // Phase 1: background only.
  for (int i = 0; i < 40000; ++i) {
    if (!feed.Push(BackgroundEdge(traffic))) return;
  }
  // Phase 2: a coordinated burst (e.g. spam ring) mixed into the traffic.
  for (int i = 0; i < 30000; ++i) {
    const tristream::Edge e =
        i % 3 == 0 ? BurstEdge(traffic) : BackgroundEdge(traffic);
    if (!feed.Push(e)) return;
  }
  // Phase 3: burst ends; the window slides clean again.
  for (int i = 0; i < 60000; ++i) {
    if (!feed.Push(BackgroundEdge(traffic))) return;
  }
  feed.Close();
}

struct ReportPoint {
  std::uint64_t at;
  const char* phase;
};

constexpr ReportPoint kReports[] = {
    {40000, "background"}, {50000, "burst"},     {60000, "burst"},
    {70000, "burst"},      {90000, "cooldown"},  {110000, "cooldown"},
    {130000, "cooldown"},
};

}  // namespace

int main() {
  using namespace tristream;
  std::printf("=== Sliding-window triangle monitor (w = %llu edges) ===\n\n",
              static_cast<unsigned long long>(kWindow));

  core::SlidingWindowOptions options;
  options.window_size = kWindow;
  options.num_estimators = 4096;
  options.seed = 9;
  engine::SlidingWindowEstimator monitor(options);

  // Small buffer on purpose: the producer outruns the monitor and spends
  // most of its time blocked in Push -- bounded memory, live semantics.
  stream::QueueEdgeStream feed(4096);
  std::thread producer(ProduceTraffic, std::ref(feed));

  std::printf("%10s  %12s  %14s  %s\n", "edge#", "phase", "window tau-hat",
              "alert");
  std::size_t next_report = 0;

  // Drive the live feed through the engine; 1000-edge batches keep the
  // report points aligned with the phase boundaries when the producer
  // keeps the queue full, and the reporting hook walks the phase table.
  engine::SessionOptions engine_options;
  engine_options.batch_size = 1000;
  engine_options.report_every_edges = 1000;
  engine_options.on_report = [&next_report](
                                 engine::StreamingEstimator& est,
                                 const engine::SessionMetrics&) {
    while (next_report < std::size(kReports) &&
           est.edges_processed() >= kReports[next_report].at) {
      const double tau_hat = est.EstimateTriangles();
      const bool alert = tau_hat > 5000.0;
      std::printf("%10llu  %12s  %14.0f  %s\n",
                  static_cast<unsigned long long>(est.edges_processed()),
                  kReports[next_report].phase, tau_hat,
                  alert ? "** dense community forming **" : "");
      ++next_report;
    }
  };
  engine::StreamEngine engine(engine_options);
  const Status streamed = engine.Run(monitor, feed);
  producer.join();
  if (!streamed.ok()) {
    std::printf("\nfeed failed mid-stream: %s\n",
                streamed.ToString().c_str());
    return 1;
  }

  std::printf(
      "\nmean chain length: %.2f (Theorem 5.8 predicts ~ln w = %.2f)\n",
      monitor.counter().MeanChainLength(),
      std::log(static_cast<double>(kWindow)));
  std::printf(
      "\nThe windowed estimate spikes while the burst community is inside\n"
      "the window and returns to ~0 after it slides out -- the real-time\n"
      "behaviour Sec. 5.2's chain-sampling construction provides.\n");
  return 0;
}
