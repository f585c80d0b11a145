// Tests for the deletion-capable (turnstile) triangle counter.
//
// The strongest anchors are deterministic: at sampling probability 1 the
// counter is an exact live-graph triangle count under any insert/delete
// interleaving, and on a window-shaped delete schedule it must agree with
// the sliding-window counter -- the "window expiry is just deletion"
// equivalence that motivates the event model.

#include "core/dynamic_counter.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ckpt/serial.h"
#include "core/sliding_window.h"
#include "gen/churn.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "util/types.h"

namespace tristream {
namespace core {
namespace {

/// Exact triangle count of the live graph an event sequence leaves behind.
std::uint64_t LiveTriangles(const EdgeEventList& events) {
  // Replay into a multiset of live edges (signed multiplicity).
  std::vector<Edge> live;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Edge& e = events.edges[i];
    if (events.op(i) == EdgeOp::kInsert) {
      live.push_back(e);
    } else {
      for (std::size_t j = 0; j < live.size(); ++j) {
        if (live[j].Key() == e.Key()) {
          live[j] = live.back();
          live.pop_back();
          break;
        }
      }
    }
  }
  graph::EdgeList el;
  for (const Edge& e : live) el.Add(e);
  return graph::CountTriangles(graph::Csr::FromEdgeList(el));
}

DynamicCounterOptions ExactOptions() {
  DynamicCounterOptions options;
  options.num_groups = 1;
  options.sample_probability = 1.0;
  return options;
}

TEST(DynamicCounterTest, ExactOnInsertOnlyStream) {
  const auto graph = gen::GnmRandom(40, 250, 11);
  DynamicTriangleCounter counter(ExactOptions());
  for (const Edge& e : graph.edges()) counter.ProcessEvent(e, EdgeOp::kInsert);
  const double exact = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(graph)));
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), exact);
  EXPECT_EQ(counter.events_seen(), graph.size());
}

TEST(DynamicCounterTest, ExactUnderMixedChurn) {
  // Light, middling and heavy delete mixes.
  const auto graph = gen::GnmRandom(40, 250, 12);
  for (const double fraction : {0.1, 0.4, 0.5}) {
    gen::ChurnOptions churn;
    churn.schedule = gen::ChurnSchedule::kMixed;
    churn.delete_fraction = fraction;
    churn.seed = 3;
    const EdgeEventList events = gen::MakeChurnStream(graph, churn);
    ASSERT_TRUE(events.has_deletes()) << fraction;

    DynamicTriangleCounter counter(ExactOptions());
    counter.ProcessEvents(events.view());
    EXPECT_DOUBLE_EQ(counter.EstimateTriangles(),
                     static_cast<double>(LiveTriangles(events)))
        << "delete fraction " << fraction;
  }
}

TEST(DynamicCounterTest, ExactUnderAdversarialTail) {
  const auto graph = gen::GnmRandom(40, 250, 13);
  gen::ChurnOptions churn;
  churn.schedule = gen::ChurnSchedule::kAdversarialTail;
  churn.delete_fraction = 0.5;
  churn.seed = 4;
  const EdgeEventList events = gen::MakeChurnStream(graph, churn);
  ASSERT_TRUE(events.has_deletes());

  DynamicTriangleCounter counter(ExactOptions());
  counter.ProcessEvents(events.view());
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(),
                   static_cast<double>(LiveTriangles(events)));
}

TEST(DynamicCounterTest, DeleteThenReinsertCountsOnce) {
  DynamicTriangleCounter counter(ExactOptions());
  const Edge triangle[] = {Edge(0, 1), Edge(1, 2), Edge(0, 2)};
  for (const Edge& e : triangle) counter.ProcessEvent(e, EdgeOp::kInsert);
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), 1.0);
  counter.ProcessEvent(Edge(0, 1), EdgeOp::kDelete);
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), 0.0);
  counter.ProcessEvent(Edge(1, 0), EdgeOp::kInsert);  // reversed orientation
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), 1.0);
}

TEST(DynamicCounterTest, MultiplicityIsSigned) {
  // Two inserts of the same edge need two deletes to go dead.
  DynamicTriangleCounter counter(ExactOptions());
  const Edge triangle[] = {Edge(0, 1), Edge(1, 2), Edge(0, 2)};
  for (const Edge& e : triangle) counter.ProcessEvent(e, EdgeOp::kInsert);
  counter.ProcessEvent(Edge(0, 1), EdgeOp::kInsert);  // multiplicity 2
  counter.ProcessEvent(Edge(0, 1), EdgeOp::kDelete);
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), 1.0);  // still live
  counter.ProcessEvent(Edge(0, 1), EdgeOp::kDelete);
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), 0.0);
}

TEST(DynamicCounterTest, SampledEstimateTracksChurnedTruth) {
  // Statistical check at p < 1: many groups, generous tolerance.
  const auto graph = gen::GnmRandom(60, 900, 21);
  gen::ChurnOptions churn;
  churn.schedule = gen::ChurnSchedule::kMixed;
  churn.delete_fraction = 0.3;
  churn.seed = 7;
  const EdgeEventList events = gen::MakeChurnStream(graph, churn);
  const double truth = static_cast<double>(LiveTriangles(events));
  ASSERT_GT(truth, 0.0);

  DynamicCounterOptions options;
  options.num_groups = 48;
  options.sample_probability = 0.7;
  DynamicTriangleCounter counter(options);
  counter.ProcessEvents(events.view());
  EXPECT_NEAR(counter.EstimateTriangles(), truth, 0.5 * truth);
}

// ------------------------------------------------- window parity anchor

TEST(DynamicCounterTest, AgreesWithSlidingWindowOnWindowSchedule) {
  // The correctness anchor: a sliding window is an insert stream plus
  // deletes of the expiring edges. Run the window counter on the plain
  // edge sequence and the dynamic counter (exact mode) on the equivalent
  // kWindow event schedule; both must describe the same live subgraph.
  const auto graph = gen::GnmRandom(50, 600, 31);
  const std::uint64_t window = 200;

  gen::ChurnOptions churn;
  churn.schedule = gen::ChurnSchedule::kWindow;
  churn.window_size = window;
  const EdgeEventList events = gen::MakeChurnStream(graph, churn);

  DynamicTriangleCounter dynamic(ExactOptions());
  dynamic.ProcessEvents(events.view());

  SlidingWindowOptions options;
  options.window_size = window;
  options.num_estimators = 1 << 14;
  options.seed = 17;
  SlidingWindowTriangleCounter sliding(options);
  sliding.ProcessEdges(graph.edges());
  ASSERT_EQ(sliding.window_edge_count(), window);

  // The dynamic side is exact (p = 1); the window side is a sampler, so
  // the agreement bound is its estimation tolerance.
  graph::EdgeList tail;
  for (std::size_t i = graph.size() - window; i < graph.size(); ++i) {
    tail.Add(graph[i]);
  }
  const double truth = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(tail)));
  EXPECT_DOUBLE_EQ(dynamic.EstimateTriangles(), truth);
  EXPECT_NEAR(sliding.EstimateTriangles(), dynamic.EstimateTriangles(),
              0.5 * std::max(truth, 1.0));
}

// -------------------------------------------------------- checkpointing

TEST(DynamicCounterTest, SaveRestoreRoundTripsMidStream) {
  const auto graph = gen::GnmRandom(40, 300, 41);
  gen::ChurnOptions churn;
  churn.delete_fraction = 0.3;
  churn.seed = 9;
  const EdgeEventList events = gen::MakeChurnStream(graph, churn);
  const std::size_t cut = events.size() / 2;

  DynamicCounterOptions options;
  options.num_groups = 8;
  options.sample_probability = 0.6;

  DynamicTriangleCounter original(options);
  for (std::size_t i = 0; i < cut; ++i) {
    original.ProcessEvent(events.edges[i], events.op(i));
  }
  ckpt::ByteSink sink;
  original.SaveState(sink);

  DynamicTriangleCounter resumed(options);
  ckpt::ByteSource source(sink.data());
  ASSERT_TRUE(resumed.RestoreState(source).ok());
  EXPECT_EQ(resumed.events_seen(), original.events_seen());

  // Replaying the identical suffix must give bit-identical estimates --
  // the sampler is hash-deterministic, so resume is exact, not approximate.
  for (std::size_t i = cut; i < events.size(); ++i) {
    original.ProcessEvent(events.edges[i], events.op(i));
    resumed.ProcessEvent(events.edges[i], events.op(i));
  }
  EXPECT_DOUBLE_EQ(resumed.EstimateTriangles(), original.EstimateTriangles());
  EXPECT_EQ(resumed.events_seen(), original.events_seen());
}

TEST(DynamicCounterTest, RestoreRejectsGroupMismatch) {
  DynamicCounterOptions options;
  options.num_groups = 4;
  DynamicTriangleCounter a(options);
  a.ProcessEvent(Edge(1, 2), EdgeOp::kInsert);
  ckpt::ByteSink sink;
  a.SaveState(sink);

  options.num_groups = 8;
  DynamicTriangleCounter b(options);
  ckpt::ByteSource source(sink.data());
  const Status restored = b.RestoreState(source);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kCorruptData);
}

TEST(DynamicCounterTest, SelfLoopsAndInvalidEdgesAreIgnored) {
  DynamicTriangleCounter counter(ExactOptions());
  counter.ProcessEvent(Edge(3, 3), EdgeOp::kInsert);
  counter.ProcessEvent(Edge(), EdgeOp::kDelete);
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), 0.0);
  // They still count as seen events (stream accounting, not graph state).
  EXPECT_EQ(counter.events_seen(), 2u);
}

}  // namespace
}  // namespace core
}  // namespace tristream
