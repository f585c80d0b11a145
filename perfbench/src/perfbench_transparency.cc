// Checks that the benchmark's timing decorators are transparent: a run
// through TimedEdgeStream / TimedEstimator computes bit-identical
// estimates, over the same batches, as the same run without them.
//
//   perfbench_transparency DIR      (writes two small streams into DIR)
//
// Exits 0 when every case matches, 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "engine/estimators.h"
#include "engine/session.h"
#include "engine/stream_engine.h"
#include "gen/churn.h"
#include "gen/datasets.h"
#include "stream/binary_io.h"
#include "stream/edge_source.h"
#include "trace.h"

namespace {

namespace engine = tristream::engine;
namespace stream = tristream::stream;
using perfbench::TimedEdgeStream;
using perfbench::TimedEstimator;

struct Outcome {
  double triangles = 0.0;
  double wedges = 0.0;
  std::uint64_t edges = 0;
  std::uint64_t batches = 0;
};

/// Runs `algo` over `path` with count's source chain. Decorated runs put
/// a TimedEdgeStream on both sides of the dedup filter and a
/// TimedEstimator around the estimator.
Outcome Run(const std::string& path, const std::string& algo,
            std::uint32_t threads, bool decorated) {
  engine::EstimatorConfig config;
  config.num_estimators = 4096;
  config.num_threads = threads;
  config.seed = 11;
  auto made = engine::MakeEstimator(algo, config);
  if (!made.ok()) return {};
  stream::EdgeSourceOptions options;
  options.dedup = !decorated;
  stream::EdgeSourceInfo info;
  auto opened = stream::OpenEdgeSource(path, options, &info);
  if (!opened.ok()) return {};
  std::unique_ptr<stream::EdgeStream> source = std::move(*opened);
  if (decorated) {
    source = std::make_unique<TimedEdgeStream>(
        std::make_unique<stream::DedupEdgeStream>(
            std::make_unique<TimedEdgeStream>(std::move(source)),
            std::max<std::size_t>(info.total_edges, 1 << 12)));
  }
  TimedEstimator timed(**made);
  engine::StreamingEstimator& estimator =
      decorated ? static_cast<engine::StreamingEstimator&>(timed) : **made;
  engine::StreamEngine runner;
  if (!runner.Run(estimator, *source).ok()) return {};
  Outcome out;
  out.triangles = estimator.EstimateTriangles();
  out.wedges = estimator.EstimateWedges();
  out.edges = estimator.edges_processed();
  out.batches = runner.metrics().batches;
  return out;
}

bool Same(const Outcome& a, const Outcome& b) {
  return a.edges > 0 && a.edges == b.edges && a.batches == b.batches &&
         std::memcmp(&a.triangles, &b.triangles, sizeof(double)) == 0 &&
         std::memcmp(&a.wedges, &b.wedges, sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_transparency DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  const auto base =
      tristream::gen::MakeDataset(tristream::gen::DatasetId::kDblp, 0.01, 3);
  const std::string edges_path = dir + "/transparency-edges.tris";
  const std::string churn_path = dir + "/transparency-churn.tris";
  tristream::gen::ChurnOptions churn;
  churn.delete_fraction = 0.2;
  churn.seed = 3;
  if (!stream::WriteBinaryEdges(edges_path, base).ok() ||
      !stream::WriteBinaryEvents(churn_path,
                                 tristream::gen::MakeChurnStream(base, churn))
           .ok()) {
    std::fprintf(stderr, "cannot write the test streams into %s\n",
                 dir.c_str());
    return 1;
  }
  struct Case {
    const char* path;
    const char* algo;
    std::uint32_t threads;
  };
  const Case cases[] = {{edges_path.c_str(), "tsb", 3},
                        {edges_path.c_str(), "bulk", 1},
                        {churn_path.c_str(), "dynamic", 1}};
  int failures = 0;
  for (const Case& c : cases) {
    const Outcome plain = Run(c.path, c.algo, c.threads, false);
    const Outcome traced = Run(c.path, c.algo, c.threads, true);
    const bool same = Same(plain, traced);
    std::printf("%-8s %s: %llu events, %llu batches, %.17g triangles\n",
                c.algo, same ? "identical" : "DIFFERENT",
                static_cast<unsigned long long>(traced.edges),
                static_cast<unsigned long long>(traced.batches),
                traced.triangles);
    failures += same ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}
