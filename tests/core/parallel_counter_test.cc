// Tests for the estimator-sharded parallel counter: bit-identity with the
// serial shard composition, statistical agreement with the serial engine
// (same invariants, same accuracy), determinism per (seed, threads), and
// thread-count robustness.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/parallel_counter.h"
#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "tests/core/core_test_util.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tristream {
namespace core {
namespace {

ParallelCounterOptions POptions(std::uint64_t r, std::uint32_t threads,
                                std::uint64_t seed) {
  ParallelCounterOptions opt;
  opt.num_estimators = r;
  opt.num_threads = threads;
  opt.seed = seed;
  return opt;
}

TEST(ParallelCounterTest, SingleThreadMatchesAccuracy) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 5), 55);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  ParallelTriangleCounter counter(POptions(40000, 1, 3));
  counter.ProcessEdges(stream.edges());
  EXPECT_EQ(counter.num_shards(), 1u);
  EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.15 * tau);
}

TEST(ParallelCounterTest, MultiThreadAccuracy) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 7), 57);
  const auto csr = graph::Csr::FromEdgeList(stream);
  const auto tau = static_cast<double>(graph::CountTriangles(csr));
  const auto zeta = static_cast<double>(graph::CountWedges(csr));
  for (std::uint32_t threads : {2u, 3u, 4u}) {
    ParallelTriangleCounter counter(POptions(42000, threads, 9));
    counter.ProcessEdges(stream.edges());
    EXPECT_EQ(counter.num_shards(), threads);
    EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.15 * tau)
        << threads << " threads";
    EXPECT_NEAR(counter.EstimateWedges(), zeta, 0.10 * zeta);
  }
}

TEST(ParallelCounterTest, DeterministicPerSeedAndThreads) {
  const auto stream = CanonicalStream();
  ParallelTriangleCounter a(POptions(4000, 3, 77));
  ParallelTriangleCounter b(POptions(4000, 3, 77));
  a.ProcessEdges(stream.edges());
  b.ProcessEdges(stream.edges());
  EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
  EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges());
}

TEST(ParallelCounterTest, EstimatorsSplitAcrossShards) {
  // Total estimator count must be preserved across uneven splits.
  ParallelTriangleCounter counter(POptions(1001, 4, 5));
  const auto stream = CanonicalStream();
  counter.ProcessEdges(stream.edges());
  // 1001 estimators -> values vector length via the wedge gather:
  // estimate != 0 proves all shards flushed; exact count checked through
  // the mean: Σ c·m / 1001.
  EXPECT_GT(counter.EstimateWedges(), 0.0);
}

TEST(ParallelCounterTest, MoreThreadsThanEstimatorsClamps) {
  ParallelTriangleCounter counter(POptions(3, 16, 5));
  EXPECT_LE(counter.num_shards(), 3u);
  const auto stream = CanonicalStream();
  counter.ProcessEdges(stream.edges());
  EXPECT_GE(counter.EstimateWedges(), 0.0);
}

TEST(ParallelCounterTest, EmptyStreamSafe) {
  ParallelTriangleCounter counter(POptions(100, 2, 1));
  EXPECT_EQ(counter.EstimateTriangles(), 0.0);
  EXPECT_EQ(counter.EstimateTransitivity(), 0.0);
  EXPECT_EQ(counter.edges_processed(), 0u);
}

TEST(ParallelCounterTest, PerEdgePushWithFlushes) {
  const auto stream = CanonicalStream();
  ParallelTriangleCounter counter(POptions(30000, 2, 13));
  for (const Edge& e : stream.edges()) counter.ProcessEdge(e);
  counter.Flush();
  EXPECT_EQ(counter.edges_processed(), stream.size());
  EXPECT_NEAR(counter.EstimateTriangles(), 5.0, 0.6);
}

TEST(ParallelCounterTest, TransitivityMatchesSerial) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(40, 0.4, 61), 2);
  const double kappa =
      graph::Transitivity(graph::Csr::FromEdgeList(stream));
  ParallelTriangleCounter counter(POptions(30000, 2, 8));
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTransitivity(), kappa, 0.15 * kappa);
}

/// The serial composition the sharded counter must reproduce bit for bit:
/// T independent TriangleCounters seeded the way ParallelTriangleCounter
/// seeds its shards, each fed the same batches (ProcessEdges then Flush
/// per batch), reduced with ComputePartials and combined in shard order.
class SerialShardReference {
 public:
  explicit SerialShardReference(const ParallelCounterOptions& options)
      : options_(options) {
    const std::uint32_t threads = options.num_threads;
    Rng seeder(options.seed ^ (0x517a9dULL * threads));
    std::uint64_t first = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      TriangleCounterOptions shard;
      shard.num_estimators = options.num_estimators / threads +
                             (t < options.num_estimators % threads ? 1 : 0);
      shard.seed = seeder.Next();
      shard.aggregation = options.aggregation;
      shard.median_groups = options.median_groups;
      shard.batch_size = std::numeric_limits<std::size_t>::max();
      shards_.push_back(std::make_unique<TriangleCounter>(shard));
      firsts_.push_back(first);
      first += shard.num_estimators;
    }
  }

  /// Feeds `edges` in batches of options.batch_size; the last batch may be
  /// partial, exactly like a ParallelTriangleCounter Flush mid-stream.
  void Feed(std::span<const Edge> edges) {
    for (std::size_t off = 0; off < edges.size();
         off += options_.batch_size) {
      const auto batch = edges.subspan(
          off, std::min(options_.batch_size, edges.size() - off));
      for (auto& shard : shards_) {
        shard->ProcessEdges(batch);
        shard->Flush();
      }
    }
  }

  /// {triangles, wedges} under the configured aggregation rule.
  std::pair<double, double> Estimates() {
    const std::uint64_t r = options_.num_estimators;
    const std::uint32_t groups =
        options_.aggregation == Aggregation::kMedianOfMeans
            ? options_.median_groups
            : 0;
    std::vector<TriangleCounter::EstimatorPartials> partials;
    for (std::size_t t = 0; t < shards_.size(); ++t) {
      partials.push_back(shards_[t]->ComputePartials(firsts_[t], r, groups));
    }
    if (groups <= 1 || r <= groups) {
      double triangles = 0.0;
      double wedges = 0.0;
      for (const auto& p : partials) {
        triangles += p.triangle_sum;
        wedges += p.wedge_sum;
      }
      return {triangles / static_cast<double>(r),
              wedges / static_cast<double>(r)};
    }
    std::vector<double> triangle_sums(groups, 0.0);
    std::vector<double> wedge_sums(groups, 0.0);
    std::vector<std::uint64_t> counts(groups, 0);
    for (const auto& p : partials) {
      for (std::size_t j = 0; j < p.group_counts.size(); ++j) {
        triangle_sums[p.first_group + j] += p.triangle_group_sums[j];
        wedge_sums[p.first_group + j] += p.wedge_group_sums[j];
        counts[p.first_group + j] += p.group_counts[j];
      }
    }
    std::vector<double> triangle_means;
    std::vector<double> wedge_means;
    for (std::size_t g = 0; g < groups; ++g) {
      if (counts[g] == 0) continue;
      triangle_means.push_back(triangle_sums[g] /
                               static_cast<double>(counts[g]));
      wedge_means.push_back(wedge_sums[g] / static_cast<double>(counts[g]));
    }
    return {Median(std::move(triangle_means)),
            Median(std::move(wedge_means))};
  }

 private:
  ParallelCounterOptions options_;
  std::vector<std::unique_ptr<TriangleCounter>> shards_;
  std::vector<std::uint64_t> firsts_;
};

TEST(ParallelCounterTest, BitIdenticalToSerialShardComposition) {
  // The pooled, double-buffered substrate is a pure scheduling change: at
  // a fixed (seed, threads, batch) its estimates equal the serial shard
  // composition to the last bit -- including a mid-stream read (which
  // flushes a partial batch) and a partial tail -- under both aggregation
  // rules, and with more threads than this machine may have cores.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 600, 11), 31);
  const std::span<const Edge> edges(stream.edges());
  const std::size_t half = 251;  // not a batch multiple
  for (const auto aggregation :
       {Aggregation::kMean, Aggregation::kMedianOfMeans}) {
    for (std::uint32_t threads : {1u, 2u, 8u}) {
      ParallelCounterOptions opt = POptions(12000, threads, 424242);
      opt.aggregation = aggregation;
      opt.batch_size = 97;
      ParallelTriangleCounter parallel(opt);
      SerialShardReference serial(opt);
      ASSERT_EQ(parallel.num_shards(), threads);

      parallel.ProcessEdges(edges.subspan(0, half));
      serial.Feed(edges.subspan(0, half));
      auto expected = serial.Estimates();
      EXPECT_EQ(parallel.EstimateTriangles(), expected.first)
          << threads << " threads, mid-stream";
      EXPECT_EQ(parallel.EstimateWedges(), expected.second)
          << threads << " threads, mid-stream";

      parallel.ProcessEdges(edges.subspan(half));
      serial.Feed(edges.subspan(half));
      expected = serial.Estimates();
      EXPECT_EQ(parallel.EstimateTriangles(), expected.first)
          << threads << " threads";
      EXPECT_EQ(parallel.EstimateWedges(), expected.second)
          << threads << " threads";
      EXPECT_EQ(parallel.edges_processed(), edges.size());
    }
  }
}

TEST(ParallelCounterTest, BitIdenticalAcrossTheBloomCutover) {
  // A shard probes the shared index's Bloom filter iff w * 8 <= its r.
  // Batches on both sides of that cutover -- and, at r = 12029 on 4
  // threads, a batch where the largest shard (3008) probes it and the
  // others (3007) do not -- must still match the serial shards, which
  // each build their own index.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(400, 5000, 17), 5);
  const std::span<const Edge> edges(stream.edges());
  struct Case {
    std::uint64_t r;
    std::size_t batch;
  };
  for (const Case c : {Case{12000, 100}, Case{12000, 500}, Case{12000, 2000},
                       Case{12029, 376}}) {
    for (std::uint32_t threads = 1; threads <= 4; ++threads) {
      ParallelCounterOptions opt = POptions(c.r, threads, 6061);
      opt.batch_size = c.batch;
      ParallelTriangleCounter parallel(opt);
      SerialShardReference serial(opt);
      parallel.ProcessEdges(edges);
      serial.Feed(edges);
      const auto expected = serial.Estimates();
      EXPECT_EQ(parallel.EstimateTriangles(), expected.first)
          << "r " << c.r << ", batch " << c.batch << ", " << threads
          << " threads";
      EXPECT_EQ(parallel.EstimateWedges(), expected.second)
          << "r " << c.r << ", batch " << c.batch << ", " << threads
          << " threads";
    }
  }
}

TEST(ParallelCounterTest, PipelinedDeterministicAcrossRunsAndPushShapes) {
  // Same (seed, threads) twice -> bit-identical, and single-edge pushes
  // must land on the same batch boundaries as span pushes.
  const auto stream = CanonicalStream();
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    ParallelCounterOptions opt = POptions(4096, threads, 99);
    opt.batch_size = 3;
    ParallelTriangleCounter a(opt);
    ParallelTriangleCounter b(opt);
    ParallelTriangleCounter c(opt);
    a.ProcessEdges(stream.edges());
    b.ProcessEdges(stream.edges());
    for (const Edge& e : stream.edges()) c.ProcessEdge(e);
    EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
    EXPECT_EQ(a.EstimateTriangles(), c.EstimateTriangles());
    EXPECT_EQ(a.EstimateWedges(), c.EstimateWedges());
  }
}

TEST(ParallelCounterTest, PinnedBitIdenticalToUnpinned) {
  // Pinning is placement only: for a fixed (seed, num_threads) the
  // estimates must match the unpinned counter to the last bit.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 600, 11), 31);
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    ParallelCounterOptions unpinned = POptions(12000, threads, 424242);
    unpinned.batch_size = 500;
    ParallelCounterOptions pinned = unpinned;
    pinned.pin_threads = true;
    ParallelTriangleCounter a(unpinned);
    ParallelTriangleCounter b(pinned);
    EXPECT_FALSE(a.pinned());
    a.ProcessEdges(stream.edges());
    b.ProcessEdges(stream.edges());
    EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles())
        << threads << " threads";
    EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges()) << threads
                                                      << " threads";
  }
}

TEST(ParallelCounterTest, ShardDistributionMatchesSerialEngine) {
  // Mean per-estimator c and triangle rate must agree with a serial
  // counter at the same total r (independent seeds; statistical bound).
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(50, 400, 21), 13);
  constexpr std::uint64_t r = 60000;
  ParallelTriangleCounter parallel(POptions(r, 4, 1001));
  parallel.ProcessEdges(stream.edges());
  TriangleCounterOptions sopt;
  sopt.num_estimators = r;
  sopt.seed = 2002;
  TriangleCounter serial(sopt);
  serial.ProcessEdges(stream.edges());
  EXPECT_NEAR(parallel.EstimateTriangles(), serial.EstimateTriangles(),
              0.25 * serial.EstimateTriangles() + 10.0);
  EXPECT_NEAR(parallel.EstimateWedges(), serial.EstimateWedges(),
              0.10 * serial.EstimateWedges() + 10.0);
}

}  // namespace
}  // namespace core
}  // namespace tristream
