// Tests for core::BatchIndex against the literal edgeIter sweep
// (tests/core/edge_iter_oracle.h): every EVENTA degree snapshot, every
// EVENTB (v, d) -> position, every final degree deg_B(v), every edge key's
// last position and the Bloom bits -- on the paper's Figure 2 batch, on
// randomized batches with self-loops, duplicate edges and extreme vertex
// ids, and on a hub-heavy batch -- and the index must come out the same
// whatever number of slots builds it.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/batch_index.h"
#include "core/estimator_kernels.h"
#include "gtest/gtest.h"
#include "tests/core/edge_iter_oracle.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"
#include "util/types.h"

namespace tristream {
namespace core {
namespace {

/// Builds the index the way the sharded counter does -- every slot's
/// BuildPart, then every slot's FinishPart -- but on one thread.
void BuildInParts(BatchIndex& index, std::span<const Edge> batch,
                  std::uint32_t parts, bool with_bloom) {
  index.Reset(batch, parts, with_bloom);
  for (std::uint32_t k = 0; k < parts; ++k) index.BuildPart(k);
  for (std::uint32_t k = 0; k < parts; ++k) index.FinishPart(k);
}

/// Checks `index` against the oracle sweep over `batch`.
void ExpectMatchesOracle(const BatchIndex& index,
                         std::span<const Edge> batch) {
  ASSERT_EQ(index.size(), batch.size());
  FlatHashMap<std::uint32_t> deg;
  std::map<std::uint64_t, std::int64_t> last;
  std::size_t events_b = 0;
  RunEdgeIter(
      batch, deg,
      [&](std::size_t j, const Edge& e) {  // EVENTA: the β snapshot
        const BatchIndex::DegreesAfter d = index.degrees_after(j);
        EXPECT_EQ(d.u, *deg.Find(e.u)) << "position " << j;
        EXPECT_EQ(d.v, *deg.Find(e.v)) << "position " << j;
        last[e.Key()] = static_cast<std::int64_t>(j);
      },
      [&](std::size_t j, const Edge&, VertexId v, std::uint32_t d) {
        const BatchIndex::VertexEvents ev = index.EventsOf(v);
        ASSERT_GE(ev.degree, d) << "vertex " << v;
        EXPECT_EQ(ev.positions[d - 1], j) << "EVENTB (" << v << ", " << d
                                          << ")";
        ++events_b;
      });
  EXPECT_EQ(events_b, 2 * batch.size());
  // deg_B, and nothing beyond it.
  deg.ForEach([&](std::uint64_t v, std::uint32_t d) {
    EXPECT_EQ(index.EventsOf(static_cast<VertexId>(v)).degree, d)
        << "vertex " << v;
  });
  for (const auto& [key, pos] : last) {
    EXPECT_EQ(index.LastPosition(key), pos) << "key " << key;
  }
  if (index.bloom() != nullptr) {
    for (const Edge& e : batch) {
      for (const VertexId v : {e.u, e.v}) {
        const std::uint64_t bit =
            kernels::BloomBitIndex(v, index.bloom_log2_bits());
        EXPECT_TRUE((index.bloom()[bit >> 6] >> (bit & 63)) & 1)
            << "vertex " << v << " missing from the Bloom filter";
      }
    }
  }
}

/// Every observable of two indexes over the same batch must agree.
void ExpectSameIndex(const BatchIndex& a, const BatchIndex& b,
                     std::span<const Edge> batch) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    EXPECT_EQ(a.degrees_after(j).u, b.degrees_after(j).u);
    EXPECT_EQ(a.degrees_after(j).v, b.degrees_after(j).v);
    for (const VertexId v : {batch[j].u, batch[j].v}) {
      const auto ea = a.EventsOf(v);
      const auto eb = b.EventsOf(v);
      ASSERT_EQ(ea.degree, eb.degree);
      EXPECT_TRUE(std::equal(ea.positions, ea.positions + ea.degree,
                             eb.positions));
    }
    EXPECT_EQ(a.LastPosition(batch[j].Key()), b.LastPosition(batch[j].Key()));
  }
  ASSERT_EQ(a.bloom() == nullptr, b.bloom() == nullptr);
  if (a.bloom() != nullptr) {
    ASSERT_EQ(a.bloom_log2_bits(), b.bloom_log2_bits());
    const std::size_t words = std::size_t{1} << (a.bloom_log2_bits() - 6);
    EXPECT_TRUE(std::equal(a.bloom(), a.bloom() + words, b.bloom()));
  }
}

/// Random batch over `vertices` ids drawn from a small pool that includes
/// 0 and 0xfffffffe, with self-loops and repeated edges mixed in.
std::vector<Edge> RandomBatch(std::size_t w, std::uint32_t vertices,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> pool = {0, 0xfffffffeu};
  while (pool.size() < vertices) {
    pool.push_back(static_cast<VertexId>(rng.Next()));
  }
  std::vector<Edge> batch;
  while (batch.size() < w) {
    const std::uint64_t kind = rng.UniformBelow(10);
    if (kind == 0 && !batch.empty()) {
      batch.push_back(batch[rng.UniformBelow(batch.size())]);  // duplicate
    } else if (kind == 1) {
      const VertexId x = pool[rng.UniformBelow(pool.size())];
      batch.emplace_back(x, x);  // self-loop
    } else {
      batch.emplace_back(pool[rng.UniformBelow(pool.size())],
                         pool[rng.UniformBelow(pool.size())]);
    }
  }
  return batch;
}

TEST(BatchIndexTest, Figure2MatchesOracleAndPaper) {
  // The paper's Figure 2: B = <KL, JK, IK, IJ, IL>, I=0, J=1, K=2, L=3.
  const std::vector<Edge> batch = {Edge(2, 3), Edge(1, 2), Edge(0, 2),
                                   Edge(0, 1), Edge(0, 3)};
  for (std::uint32_t parts = 1; parts <= 4; ++parts) {
    BatchIndex index;
    BuildInParts(index, batch, parts, /*with_bloom=*/true);
    ExpectMatchesOracle(index, batch);
    // β(IK) = (1, 3); Γ(IK)(I) = {IJ, IL} at positions 3 and 4.
    EXPECT_EQ(index.degrees_after(2).u, 1u);
    EXPECT_EQ(index.degrees_after(2).v, 3u);
    const auto ei = index.EventsOf(0);
    ASSERT_EQ(ei.degree, 3u);
    EXPECT_EQ(ei.positions[1], 3u);
    EXPECT_EQ(ei.positions[2], 4u);
    EXPECT_EQ(index.EventsOf(7).degree, 0u);  // not a batch vertex
    EXPECT_EQ(index.LastPosition(Edge(1, 3).Key()), -1);
    EXPECT_EQ(index.LastPosition(Edge(3, 2).Key()), 0);
  }
}

TEST(BatchIndexTest, RandomBatchesMatchOracle) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const std::size_t w = 1 + (seed * 97) % 700;
    const auto batch = RandomBatch(w, 5 + seed * 7, seed + 100);
    BatchIndex index;
    index.Build(batch, /*with_bloom=*/seed % 2 == 0);
    ExpectMatchesOracle(index, batch);
  }
}

TEST(BatchIndexTest, SelfLoopReadsDegreeAfterBothIncrements) {
  const std::vector<Edge> batch = {Edge(5, 6), Edge(5, 5), Edge(6, 5)};
  BatchIndex index;
  index.Build(batch, false);
  EXPECT_EQ(index.degrees_after(1).u, 3u);
  EXPECT_EQ(index.degrees_after(1).v, 3u);
  const auto e5 = index.EventsOf(5);
  ASSERT_EQ(e5.degree, 4u);
  EXPECT_EQ(e5.positions[1], 1u);  // degree 2 and 3 both at the loop
  EXPECT_EQ(e5.positions[2], 1u);
  EXPECT_EQ(index.LastPosition(Edge(5, 6).Key()), 2);  // duplicate {5,6}
  ExpectMatchesOracle(index, batch);
}

TEST(BatchIndexTest, HubHeavyBatchMatchesOracle) {
  // Most edges touch one hub: one long CSR run next to many short ones.
  Rng rng(77);
  std::vector<Edge> batch;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const VertexId other = 1 + static_cast<VertexId>(rng.UniformBelow(400));
    batch.emplace_back(rng.UniformBelow(5) == 0 ? other + 1 : 0, other);
  }
  BatchIndex index;
  index.Build(batch, true);
  ExpectMatchesOracle(index, batch);
  EXPECT_GT(index.EventsOf(0).degree, 2000u);
}

TEST(BatchIndexTest, IdenticalForAnyNumberOfSlots) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto batch = RandomBatch(50 + seed * 211, 40 + seed * 30, seed);
    const bool with_bloom = seed % 2 == 1;
    BatchIndex serial;
    serial.Build(batch, with_bloom);
    for (std::uint32_t parts = 1; parts <= 4; ++parts) {
      BatchIndex split;
      BuildInParts(split, batch, parts, with_bloom);
      ExpectSameIndex(serial, split, batch);
      ExpectMatchesOracle(split, batch);
    }
  }
}

TEST(BatchIndexTest, ReuseAcrossBatchesForgetsThePreviousOne) {
  // One index serves every batch: a rebuild must not leak entries of the
  // batch before it, including when the batch shrinks.
  const auto first = RandomBatch(600, 50, 1);
  const auto second = RandomBatch(90, 30, 2);
  for (std::uint32_t parts = 1; parts <= 3; ++parts) {
    BatchIndex index;
    BuildInParts(index, first, parts, true);
    BuildInParts(index, second, parts, true);
    ExpectMatchesOracle(index, second);
    FlatHashMap<std::uint32_t> deg;
    RunEdgeIter(second, deg, [](std::size_t, const Edge&) {},
                [](std::size_t, const Edge&, VertexId, std::uint32_t) {});
    for (const Edge& e : first) {
      if (deg.Find(e.u) == nullptr) EXPECT_EQ(index.EventsOf(e.u).degree, 0u);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace tristream
