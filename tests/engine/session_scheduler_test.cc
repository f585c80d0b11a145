// Session + Scheduler suite: the determinism and isolation contracts
// serve mode stands on. A session advanced in quanta by any interleave of
// scheduler workers must produce estimates bit-identical to a dedicated
// StreamEngine::Run over the same edges (same seed, same r, same batch
// size); one session's failure must stay its own; a parked session
// (stalled producer) must never block other sessions' progress; and the
// snapshot query path must never perturb the estimate it reports.

#include "engine/scheduler.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/estimators.h"
#include "engine/session.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "stream/queue_stream.h"

namespace tristream {
namespace engine {
namespace {

constexpr std::size_t kBatch = 256;

EstimatorConfig BulkConfig(std::uint64_t seed) {
  EstimatorConfig config;
  config.num_estimators = 2048;
  config.seed = seed;
  return config;
}

struct Estimates {
  std::uint64_t edges = 0;
  double triangles = 0.0;
  double wedges = 0.0;

  bool operator==(const Estimates&) const = default;
};

Estimates Read(StreamingEstimator& est) {
  Estimates out;
  out.edges = est.edges_processed();
  out.triangles = est.EstimateTriangles();
  if (est.has_wedge_estimates()) out.wedges = est.EstimateWedges();
  return out;
}

/// The reference: a dedicated one-session StreamEngine::Run (itself
/// parity-locked against the pre-engine drivers).
Estimates RunIsolated(std::uint64_t seed, const graph::EdgeList& el) {
  auto est = MakeEstimator("bulk", BulkConfig(seed));
  EXPECT_TRUE(est.ok()) << est.status();
  stream::MemoryEdgeStream source(el);
  SessionOptions options;
  options.batch_size = kBatch;
  StreamEngine eng(options);
  EXPECT_TRUE(eng.Run(**est, source).ok());
  return Read(**est);
}

TEST(SessionTest, StepUntilDoneMatchesStreamEngineRun) {
  const auto el = gen::GnmRandom(300, 5000, 17);
  const Estimates expected = RunIsolated(99, el);

  auto est = MakeEstimator("bulk", BulkConfig(99));
  ASSERT_TRUE(est.ok());
  stream::MemoryEdgeStream source(el);
  SessionOptions options;
  options.batch_size = kBatch;
  Session session(**est, source, options);
  EXPECT_EQ(session.state(), SessionState::kInit);
  EXPECT_TRUE(session.ready());
  std::size_t steps = 0;
  while (!session.done()) {
    session.Step();
    ++steps;
  }
  EXPECT_EQ(session.state(), SessionState::kFinished);
  EXPECT_TRUE(session.status().ok());
  EXPECT_FALSE(session.ready());  // done sessions never reschedule
  // quantum_batches = 1: one batch per step, plus the final empty fetch.
  EXPECT_GE(steps, el.size() / kBatch);
  EXPECT_EQ(Read(**est), expected);
  EXPECT_EQ(session.metrics().edges, el.size());
  EXPECT_EQ(session.metrics().batch_size, kBatch);
}

TEST(SessionTest, QuantumSizeNeverChangesEstimates) {
  const auto el = gen::GnmRandom(300, 5000, 18);
  const Estimates expected = RunIsolated(7, el);
  for (const std::size_t quantum : {std::size_t{1}, std::size_t{3},
                                    std::size_t{1000}}) {
    auto est = MakeEstimator("bulk", BulkConfig(7));
    ASSERT_TRUE(est.ok());
    stream::MemoryEdgeStream source(el);
    SessionOptions options;
    options.batch_size = kBatch;
    options.quantum_batches = quantum;
    Session session(**est, source, options);
    while (!session.done()) session.Step();
    EXPECT_TRUE(session.status().ok());
    EXPECT_EQ(Read(**est), expected) << "quantum=" << quantum;
  }
}

TEST(SessionTest, ValidationFailureIsFailedStateNotCrash) {
  auto est = MakeEstimator("bulk", BulkConfig(1));
  ASSERT_TRUE(est.ok());
  const auto el = gen::GnmRandom(50, 200, 3);
  stream::MemoryEdgeStream source(el);
  SessionOptions options;
  options.checkpoint_path = "/tmp/x";  // cadence missing -> invalid
  Session session(**est, source, options);
  EXPECT_EQ(session.Step(), SessionState::kFailed);
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Step(), SessionState::kFailed);  // sticky no-op
}

/// N sessions over bounded queues, stepped by a threaded scheduler while
/// producer threads push ragged chunks: every session's estimate must be
/// bit-identical to its own isolated run. This is the serve-mode
/// determinism contract minus the TCP layer.
TEST(SchedulerTest, ConcurrentSessionsBitIdenticalToIsolatedRuns) {
  constexpr std::size_t kSessions = 16;
  const auto el = gen::GnmRandom(400, 8000, 29);

  std::vector<Estimates> expected;
  for (std::size_t i = 0; i < kSessions; ++i) {
    expected.push_back(RunIsolated(1000 + i, el));
  }

  std::vector<std::unique_ptr<StreamingEstimator>> estimators;
  std::vector<std::unique_ptr<stream::QueueEdgeStream>> queues;
  std::vector<std::unique_ptr<Session>> sessions;
  Scheduler scheduler(SchedulerOptions{.num_workers = 4});
  scheduler.Start();
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto est = MakeEstimator("bulk", BulkConfig(1000 + i));
    ASSERT_TRUE(est.ok());
    estimators.push_back(std::move(*est));
    // Small queue: producers genuinely block on backpressure.
    queues.push_back(std::make_unique<stream::QueueEdgeStream>(1024));
    SessionOptions options;
    options.batch_size = kBatch;
    options.cooperative = true;
    sessions.push_back(std::make_unique<Session>(*estimators.back(),
                                                 *queues.back(), options));
    scheduler.Add(sessions.back().get());
  }

  // Ragged per-session chunking (different prime strides): batch
  // boundaries must come out identical anyway, because the *consumer*
  // decides them. Kick after each push -- the producer-pokes-scheduler
  // discipline serve mode's event loop follows -- so a session parked on
  // an empty queue is promoted when its data arrives.
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kSessions; ++i) {
    producers.emplace_back([&, i] {
      const std::span<const Edge> edges(el.edges());
      const std::size_t stride = 37 + 13 * i;
      std::size_t offset = 0;
      while (offset < edges.size()) {
        const std::size_t take = std::min(stride, edges.size() - offset);
        ASSERT_EQ(queues[i]->Push(edges.subspan(offset, take)), take);
        offset += take;
        scheduler.Kick();
      }
      queues[i]->Close();
      scheduler.Kick();
    });
  }
  for (auto& t : producers) t.join();
  scheduler.WaitIdle();
  EXPECT_EQ(scheduler.active_sessions(), 0u);
  scheduler.Stop();

  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(sessions[i]->status().ok()) << sessions[i]->status();
    EXPECT_EQ(Read(*estimators[i]), expected[i]) << "session " << i;
  }
}

/// One session's source failure stays its own: the failed session reports
/// its sticky status, every other session completes bit-identically.
TEST(SchedulerTest, SessionFailureIsIsolated) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kVictim = 2;
  const auto el = gen::GnmRandom(200, 3000, 31);

  std::vector<std::unique_ptr<StreamingEstimator>> estimators;
  std::vector<std::unique_ptr<stream::QueueEdgeStream>> queues;
  std::vector<std::unique_ptr<Session>> sessions;
  Scheduler scheduler(SchedulerOptions{.num_workers = 3});
  scheduler.Start();
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto est = MakeEstimator("bulk", BulkConfig(500 + i));
    ASSERT_TRUE(est.ok());
    estimators.push_back(std::move(*est));
    queues.push_back(std::make_unique<stream::QueueEdgeStream>(4096));
    SessionOptions options;
    options.batch_size = kBatch;
    options.cooperative = true;
    sessions.push_back(std::make_unique<Session>(*estimators.back(),
                                                 *queues.back(), options));
    scheduler.Add(sessions.back().get());
  }
  const std::span<const Edge> edges(el.edges());
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (i == kVictim) {
      queues[i]->Push(edges.subspan(0, 100));
      queues[i]->Close(Status::IoError("producer died"));
    } else {
      queues[i]->Push(edges);
      queues[i]->Close();
    }
  }
  scheduler.Kick();  // closed queues make every parked session ready
  scheduler.WaitIdle();
  scheduler.Stop();

  for (std::size_t i = 0; i < kSessions; ++i) {
    if (i == kVictim) {
      EXPECT_EQ(sessions[i]->status().code(), StatusCode::kIoError);
      EXPECT_EQ(estimators[i]->edges_processed(), 100u);
    } else {
      EXPECT_TRUE(sessions[i]->status().ok()) << sessions[i]->status();
      EXPECT_EQ(Read(*estimators[i]), RunIsolated(500 + i, el));
    }
  }
}

/// A cooperative session whose producer never sends must park, not pin a
/// worker: with one worker, a busy session must still finish while the
/// stalled one waits, and the stalled one must finish once fed.
TEST(SchedulerTest, ParkedSessionDoesNotBlockOthers) {
  const auto el = gen::GnmRandom(200, 3000, 43);

  auto stalled_est = MakeEstimator("bulk", BulkConfig(1));
  auto busy_est = MakeEstimator("bulk", BulkConfig(2));
  ASSERT_TRUE(stalled_est.ok() && busy_est.ok());
  stream::QueueEdgeStream stalled_queue(1024);
  stream::QueueEdgeStream busy_queue(1 << 15);
  SessionOptions options;
  options.batch_size = kBatch;
  options.cooperative = true;
  Session stalled(**stalled_est, stalled_queue, options);
  Session busy(**busy_est, busy_queue, options);

  Scheduler scheduler(SchedulerOptions{.num_workers = 1});
  scheduler.Start();
  scheduler.Add(&stalled);  // first in the queue, but its producer is mute
  scheduler.Add(&busy);

  busy_queue.Push(std::span<const Edge>(el.edges()));
  busy_queue.Close();
  scheduler.Kick();
  // The busy session finishes while the stalled one is parked. Poll with
  // a generous deadline: a deadlock here would otherwise hang the suite.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!busy.done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(busy.done()) << "stalled session pinned the only worker";
  EXPECT_TRUE(busy.status().ok());
  EXPECT_FALSE(stalled.done());

  // Feed the parked session in chunks no larger than its queue, kicking
  // after each so the parked session is promoted to drain them (a single
  // whole-stream Push would block on the full queue before any Kick).
  const std::span<const Edge> edges(el.edges());
  std::size_t offset = 0;
  while (offset < edges.size()) {
    const std::size_t take = std::min<std::size_t>(512, edges.size() - offset);
    ASSERT_EQ(stalled_queue.Push(edges.subspan(offset, take)), take);
    offset += take;
    scheduler.Kick();
  }
  stalled_queue.Close();
  scheduler.Kick();
  scheduler.WaitIdle();
  scheduler.Stop();
  EXPECT_TRUE(stalled.status().ok());
  EXPECT_EQ(Read(**stalled_est), RunIsolated(1, el));
}

/// Snapshot queries mid-run must never change the final estimate (the
/// non-perturbation contract) and must eventually report fresh values.
TEST(SchedulerTest, SnapshotQueriesDoNotPerturbEstimates) {
  const auto el = gen::GnmRandom(400, 8000, 57);
  const Estimates expected = RunIsolated(11, el);

  auto est = MakeEstimator("bulk", BulkConfig(11));
  ASSERT_TRUE(est.ok());
  stream::QueueEdgeStream queue(1 << 12);
  SessionOptions options;
  options.batch_size = kBatch;
  options.cooperative = true;
  Session session(**est, queue, options);
  Scheduler scheduler(SchedulerOptions{.num_workers = 2});
  scheduler.Start();
  scheduler.Add(&session);

  // Hammer the query path from this thread while the producer trickles.
  std::atomic<bool> stop{false};
  std::uint64_t valid_snapshots = 0;
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      session.RequestSnapshot();
      scheduler.Kick();
      const SessionSnapshot snap = session.snapshot();
      if (snap.valid) ++valid_snapshots;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const std::span<const Edge> edges(el.edges());
  std::size_t offset = 0;
  while (offset < edges.size()) {
    const std::size_t take = std::min<std::size_t>(97, edges.size() - offset);
    ASSERT_EQ(queue.Push(edges.subspan(offset, take)), take);
    offset += take;
  }
  queue.Close();
  scheduler.WaitIdle();
  stop.store(true, std::memory_order_release);
  monitor.join();
  scheduler.Stop();

  ASSERT_TRUE(session.status().ok());
  EXPECT_EQ(Read(**est), expected);  // queries changed nothing
  const SessionSnapshot final_snap = session.snapshot();
  EXPECT_TRUE(final_snap.valid);
  EXPECT_TRUE(final_snap.final_result);
  EXPECT_EQ(final_snap.edges, el.size());
  EXPECT_EQ(final_snap.triangles, expected.triangles);
}

/// Add/complete churn: waves of short-lived sessions through a running
/// scheduler leave nothing behind -- no stuck workers, zero active.
TEST(SchedulerTest, SessionChurnLeavesNothingBehind) {
  const auto el = gen::GnmRandom(100, 1200, 71);
  Scheduler scheduler(SchedulerOptions{.num_workers = 4});
  scheduler.Start();
  std::atomic<std::uint64_t> reaped{0};

  constexpr std::size_t kWaves = 8;
  constexpr std::size_t kPerWave = 8;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::unique_ptr<StreamingEstimator>> estimators;
    std::vector<std::unique_ptr<stream::QueueEdgeStream>> queues;
    std::vector<std::unique_ptr<Session>> sessions;
    for (std::size_t i = 0; i < kPerWave; ++i) {
      auto est = MakeEstimator("bulk", BulkConfig(wave * 100 + i));
      ASSERT_TRUE(est.ok());
      estimators.push_back(std::move(*est));
      queues.push_back(std::make_unique<stream::QueueEdgeStream>(2048));
      SessionOptions options;
      options.batch_size = kBatch;
      options.cooperative = true;
      sessions.push_back(std::make_unique<Session>(
          *estimators.back(), *queues.back(), options));
      scheduler.Add(sessions.back().get());
    }
    for (std::size_t i = 0; i < kPerWave; ++i) {
      if (i % 3 == 0) {
        // A third of the wave disconnects abruptly mid-stream.
        queues[i]->Push(std::span<const Edge>(el.edges()).subspan(0, 50));
        queues[i]->Close(Status::IoError("disconnect"));
      } else {
        queues[i]->Push(std::span<const Edge>(el.edges()));
        queues[i]->Close();
      }
    }
    scheduler.Kick();
    scheduler.WaitIdle();  // wave fully reaped before its state dies
    for (auto& session : sessions) {
      EXPECT_TRUE(session->done());
      ++reaped;
    }
  }
  EXPECT_EQ(scheduler.active_sessions(), 0u);
  EXPECT_EQ(reaped.load(), kWaves * kPerWave);
  scheduler.Stop();
}

/// The on_session_done callback fires exactly once per session, off the
/// scheduler lock, before WaitIdle returns.
TEST(SchedulerTest, DoneCallbackFiresOncePerSession) {
  const auto el = gen::GnmRandom(100, 1500, 83);
  std::atomic<std::uint64_t> callbacks{0};
  SchedulerOptions options;
  options.num_workers = 2;
  options.on_session_done = [&callbacks](Session& session) {
    EXPECT_TRUE(session.done());
    callbacks.fetch_add(1, std::memory_order_relaxed);
  };
  Scheduler scheduler(std::move(options));
  scheduler.Start();

  constexpr std::size_t kSessions = 5;
  std::vector<std::unique_ptr<StreamingEstimator>> estimators;
  std::vector<std::unique_ptr<stream::MemoryEdgeStream>> sources;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto est = MakeEstimator("bulk", BulkConfig(i));
    ASSERT_TRUE(est.ok());
    estimators.push_back(std::move(*est));
    sources.push_back(std::make_unique<stream::MemoryEdgeStream>(el));
    SessionOptions session_options;
    session_options.batch_size = kBatch;
    sessions.push_back(std::make_unique<Session>(
        *estimators.back(), *sources.back(), session_options));
    scheduler.Add(sessions.back().get());
  }
  scheduler.WaitIdle();
  EXPECT_EQ(callbacks.load(), kSessions);
  scheduler.Stop();
}

}  // namespace
}  // namespace engine
}  // namespace tristream
