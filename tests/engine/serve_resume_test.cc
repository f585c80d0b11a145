// Self-healing serve plane suite: the TRIH resume handshake and the
// checkpoint/evict/restore lifecycle of named sessions.
//
// Contracts locked here:
//   * TRIE payloads carry a stable machine-parseable code prefix
//     (FormatTrieMessage round-trips through ParseTrieMessage).
//   * A named feed killed mid-stream reconnects, resumes from the
//     server's ack, and finishes bit-identical to an uninterrupted run --
//     with every event delivered exactly once.
//   * A finished identity replays its stored final TRIR; a failed one
//     replays its stored failure verbatim (tombstone).
//   * Protocol misuse (TRIH not first, duplicate live attach) is refused
//     with the right code; duplicate attach is Unavailable, i.e.
//     retryable, so a reconnect racing the server's detach self-heals.
//   * Under memory pressure the coldest detached session is
//     checkpointed-and-evicted; its owner reconnects, is restored from
//     disk transparently, and still finishes bit-identical.

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/estimators.h"
#include "engine/feed_client.h"
#include "engine/serve.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_stream.h"
#include "stream/socket_stream.h"
#include "util/backoff.h"

namespace tristream {
namespace engine {
namespace {

constexpr std::size_t kBatch = 256;

/// Polls server stats until `pred` holds or the deadline passes.
template <typename Pred>
bool WaitForStats(Server& server, Pred pred, int seconds = 30) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred(server.stats());
}

EstimatorConfig TestConfig() {
  EstimatorConfig config;
  config.num_estimators = 1024;
  config.seed = 12345;
  config.batch_size = kBatch;
  return config;
}

ServeOptions BaseOptions() {
  ServeOptions options;
  options.algo = "bulk";
  options.config = TestConfig();
  options.batch_size = kBatch;
  options.num_workers = 2;
  return options;
}

double IsolatedTriangles(const graph::EdgeList& el) {
  auto est = MakeEstimator("bulk", TestConfig());
  EXPECT_TRUE(est.ok());
  stream::MemoryEdgeStream source(el);
  SessionOptions options;
  options.batch_size = kBatch;
  StreamEngine eng(options);
  EXPECT_TRUE(eng.Run(**est, source).ok());
  return (*est)->EstimateTriangles();
}

/// Feed-client options tuned for tests: instant (but observed) backoff.
FeedClientOptions TestFeedOptions(std::uint16_t port,
                                  std::uint64_t stream_id,
                                  std::uint32_t retries) {
  FeedClientOptions options;
  options.port = port;
  options.frame_edges = 173;  // ragged on purpose
  options.stream_id = stream_id;
  options.max_retries = retries;
  options.backoff.seed = stream_id != 0 ? stream_id : 1;
  options.sleep_override = [](std::uint64_t) {};  // full speed
  return options;
}

TEST(TrieMessageTest, FormatParsesBackToTheSameStatus) {
  const Status statuses[] = {
      Status::IoError("peer vanished"),
      Status::CorruptData("bad frame magic 'JUNK'"),
      Status::Unavailable("stream id 7 is already attached"),
      Status::FailedPrecondition("TRIH hello must be the first frame"),
      Status::DeadlineExceeded("idle for 60 ms"),
      Status::InvalidArgument("stream id must be nonzero"),
  };
  for (const Status& status : statuses) {
    const std::string payload = FormatTrieMessage(status);
    // Machine-parseable prefix: "TRIE/<TOKEN>: ".
    EXPECT_EQ(payload.rfind("TRIE/", 0), 0u) << payload;
    const TrieError parsed = ParseTrieMessage(payload);
    EXPECT_EQ(parsed.code, status.code()) << payload;
    EXPECT_EQ(parsed.message, status.message()) << payload;
  }
}

TEST(TrieMessageTest, UnrecognizedPayloadDegradesToInternal) {
  const TrieError parsed = ParseTrieMessage("something went wrong");
  EXPECT_EQ(parsed.code, StatusCode::kInternal);
  EXPECT_EQ(parsed.message, "something went wrong");
}

/// The headline resume contract: a named feed killed twice mid-stream
/// reconnects, skips to the server's ack each time, and the final
/// estimate is bit-identical to an isolated run -- no event delivered
/// twice, none lost.
TEST(ServeResumeTest, KilledFeedResumesBitIdenticalWithoutDoubleCounting) {
  const auto el = gen::GnmRandom(300, 5000, 67);
  const double expected = IsolatedTriangles(el);

  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  FeedClientOptions feed = TestFeedOptions(*port, 42, 8);
  feed.kill_after_events = {1200, 3500};
  // With an instant (test) backoff, a reconnect can race the server's
  // discovery that the killed connection died and draw a retryable
  // "already attached" Unavailable first -- that self-healing is part of
  // the design, so count the two failure shapes separately.
  std::uint64_t chaos_kills = 0;
  std::uint64_t attach_races = 0;
  feed.on_retry = [&](std::uint32_t, const Status& cause, std::uint64_t) {
    if (cause.code() == StatusCode::kIoError &&
        cause.message().find("chaos") != std::string::npos) {
      ++chaos_kills;
    } else if (cause.code() == StatusCode::kUnavailable) {
      ++attach_races;
    } else {
      ADD_FAILURE() << "unexpected retry cause: " << cause.ToString();
    }
  };
  stream::MemoryEdgeStream source(el);
  auto result = RunFeedClient(source, feed);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_TRUE(result->final_snapshot.final_result);
  EXPECT_EQ(result->final_snapshot.edges, el.size());
  EXPECT_EQ(result->final_snapshot.triangles, expected);
  // Exactly-once: unique events across all attempts == the source size.
  EXPECT_EQ(result->events_sent, el.size());
  EXPECT_EQ(chaos_kills, 2u);
  EXPECT_EQ(result->reconnects, chaos_kills + attach_races);

  server.Stop();
  server.Wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.detached, 2u);
  EXPECT_EQ(stats.resumed, 2u);
  EXPECT_EQ(stats.completed, 1u);
  // Each attach race is one loudly-refused connection, nothing more.
  EXPECT_EQ(stats.failed, attach_races);
  EXPECT_EQ(stats.memory_used, 0u);
}

/// A finished identity replays its stored final TRIR: the second feed
/// run sends no events at all and still gets the full answer.
TEST(ServeResumeTest, FinishedIdentityReplaysFinalAnswer) {
  const auto el = gen::GnmRandom(200, 2500, 19);
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  stream::MemoryEdgeStream source(el);
  auto first = RunFeedClient(source, TestFeedOptions(*port, 7, 0));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->events_sent, el.size());

  stream::MemoryEdgeStream again(el);
  auto second = RunFeedClient(again, TestFeedOptions(*port, 7, 0));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->events_sent, 0u) << "replay must not re-ingest";
  EXPECT_EQ(second->final_snapshot.triangles,
            first->final_snapshot.triangles);
  EXPECT_EQ(second->final_snapshot.edges, first->final_snapshot.edges);

  server.Stop();
  server.Wait();
  // The replayed hello counts as a completed connection, not a session
  // re-run: both lives completed, nothing failed.
  EXPECT_EQ(server.stats().failed, 0u);
}

/// A failed identity replays its stored failure (tombstone): the client
/// sees the original error code, not a fresh session.
TEST(ServeResumeTest, FailedIdentityReplaysTombstone) {
  ServeOptions options = BaseOptions();  // bulk: insert-only
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Fail a named session deterministically: a delete event against an
  // insert-only estimator.
  EdgeEventList events;
  events.Add(Edge(1, 2));
  events.Add(Edge(1, 2), EdgeOp::kDelete);
  stream::MemoryEdgeStream source(events);
  auto first = RunFeedClient(source, TestFeedOptions(*port, 13, 0));
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument)
      << first.status();
  EXPECT_NE(first.status().message().find("'bulk'"), std::string::npos);

  // Reconnecting under the same identity replays the stored outcome
  // verbatim -- same code, same message.
  stream::MemoryEdgeStream again(events);
  auto second = RunFeedClient(again, TestFeedOptions(*port, 13, 0));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), first.status().code());
  EXPECT_EQ(second.status().message(), first.status().message());

  server.Stop();
  server.Wait();
}

Status RawHelloAfterData(std::uint16_t port) {
  auto fd = stream::ConnectToLoopback(port);
  if (!fd.ok()) return fd.status();
  // One legitimate edge frame first ...
  const Edge one(1, 2);
  EXPECT_TRUE(
      stream::WriteEdgeFrame(*fd, std::span<const Edge>(&one, 1)).ok());
  // ... then an out-of-order hello.
  char hello[stream::kTrisHeaderBytes + 8];
  std::memcpy(hello, kServeHelloMagic, 4);
  std::memcpy(hello + 4, &stream::kTrisVersion,
              sizeof(stream::kTrisVersion));
  const std::uint64_t count = 8;
  std::memcpy(hello + 8, &count, sizeof(count));
  const std::uint64_t id = 5;
  std::memcpy(hello + stream::kTrisHeaderBytes, &id, sizeof(id));
  EXPECT_EQ(::send(*fd, hello, sizeof(hello), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hello)));
  // Read the TRIE reply.
  char header[stream::kTrisHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n =
        ::recv(*fd, header + got, sizeof(header) - got, 0);
    if (n <= 0) {
      ::close(*fd);
      return Status::IoError("no reply");
    }
    got += static_cast<std::size_t>(n);
  }
  std::uint64_t len = 0;
  std::memcpy(&len, header + 8, sizeof(len));
  std::string payload(len, '\0');
  got = 0;
  while (got < len) {
    const ssize_t n = ::recv(*fd, payload.data() + got, len - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(*fd);
  if (std::memcmp(header, kServeErrorMagic, 4) != 0) {
    return Status::Internal("expected TRIE, got something else");
  }
  const TrieError parsed = ParseTrieMessage(payload);
  return Status(parsed.code, parsed.message);
}

TEST(ServeResumeTest, HelloMustBeFirstFrame) {
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const Status refused = RawHelloAfterData(*port);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
  EXPECT_NE(refused.message().find("first frame"), std::string::npos)
      << refused;
  server.Stop();
  server.Wait();
}

TEST(ServeResumeTest, ZeroStreamIdIsInvalidArgument) {
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  char hello[stream::kTrisHeaderBytes + 8] = {0};
  std::memcpy(hello, kServeHelloMagic, 4);
  std::memcpy(hello + 4, &stream::kTrisVersion,
              sizeof(stream::kTrisVersion));
  const std::uint64_t count = 8;
  std::memcpy(hello + 8, &count, sizeof(count));
  ASSERT_EQ(::send(*fd, hello, sizeof(hello), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hello)));
  char header[stream::kTrisHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = ::recv(*fd, header + got, sizeof(header) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(std::memcmp(header, kServeErrorMagic, 4), 0);
  std::uint64_t len = 0;
  std::memcpy(&len, header + 8, sizeof(len));
  std::string payload(len, '\0');
  got = 0;
  while (got < len) {
    const ssize_t n = ::recv(*fd, payload.data() + got, len - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  ::close(*fd);
  EXPECT_EQ(ParseTrieMessage(payload).code, StatusCode::kInvalidArgument)
      << payload;
  server.Stop();
  server.Wait();
}

/// Two live connections claiming the same identity: the second is
/// refused with Unavailable -- retryable by design, because the usual
/// cause is a reconnect racing the server's discovery that the first
/// connection died.
TEST(ServeResumeTest, DuplicateLiveAttachIsUnavailable) {
  const auto el = gen::GnmRandom(100, 1000, 5);
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // First claimant: raw socket, hello, then hold the connection open.
  auto holder = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(holder.ok());
  char hello[stream::kTrisHeaderBytes + 8];
  std::memcpy(hello, kServeHelloMagic, 4);
  std::memcpy(hello + 4, &stream::kTrisVersion,
              sizeof(stream::kTrisVersion));
  const std::uint64_t count = 8;
  std::memcpy(hello + 8, &count, sizeof(count));
  const std::uint64_t id = 21;
  std::memcpy(hello + stream::kTrisHeaderBytes, &id, sizeof(id));
  ASSERT_EQ(::send(*holder, hello, sizeof(hello), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hello)));
  // Wait for the ack so the attach is definitely live server-side.
  char ack[stream::kTrisHeaderBytes + kSnapshotBodyBytes];
  std::size_t got = 0;
  while (got < sizeof(ack)) {
    const ssize_t n = ::recv(*holder, ack + got, sizeof(ack) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }

  // Second claimant: the feed client, no retries -- must fail
  // Unavailable (a retryable code).
  stream::MemoryEdgeStream source(el);
  auto second = RunFeedClient(source, TestFeedOptions(*port, 21, 0));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable)
      << second.status();
  EXPECT_TRUE(IsRetryable(second.status()));

  // And with a retry budget, the race self-heals once the holder dies.
  std::thread release([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ::close(*holder);
  });
  FeedClientOptions feed = TestFeedOptions(*port, 21, 20);
  feed.sleep_override = [](std::uint64_t millis) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<std::uint64_t>(millis, 10)));
  };
  stream::MemoryEdgeStream retry_source(el);
  auto healed = RunFeedClient(retry_source, feed);
  release.join();
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->final_snapshot.triangles, IsolatedTriangles(el));

  server.Stop();
  server.Wait();
}

/// Eviction under memory pressure + transparent restore: with a budget
/// that fits one session, a parked (detached) session is checkpointed to
/// disk to admit a newcomer; when its owner returns, the session is
/// rebuilt from the checkpoint and finishes bit-identical.
TEST(ServeResumeTest, EvictedSessionRestoresFromCheckpointBitIdentical) {
  const auto el = gen::GnmRandom(300, 6000, 91);
  const double expected = IsolatedTriangles(el);

  const std::string ckpt_dir =
      std::string(::testing::TempDir()) + "/serve_evict_restore";
  std::remove((ckpt_dir + "/stream-31.ckpt").c_str());
  std::remove((ckpt_dir + "/stream-31.ckpt.prev").c_str());
  ::rmdir(ckpt_dir.c_str());
  ASSERT_EQ(::mkdir(ckpt_dir.c_str(), 0755), 0);

  ServeOptions options = BaseOptions();
  options.checkpoint_dir = ckpt_dir;
  options.checkpoint_every_edges = 512;
  // Budget fits one session but not two: admitting the second client
  // while the first is parked forces checkpoint-then-evict.
  const std::size_t charge = Server::EstimateSessionCharge(options);
  ASSERT_GT(charge, 0u);
  options.memory_budget_bytes = 2 * charge - 1;
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  // Client A: named, killed mid-stream past a checkpoint boundary ->
  // detaches, parked with its charge held.
  FeedClientOptions feed_a = TestFeedOptions(*port, 31, 0);
  feed_a.kill_after_events = {2048};
  stream::MemoryEdgeStream source_a(el);
  auto killed = RunFeedClient(source_a, feed_a);
  ASSERT_FALSE(killed.ok());  // no retries: the kill surfaces
  EXPECT_EQ(killed.status().code(), StatusCode::kIoError);
  // Wait until the server has noticed the dead connection and parked the
  // session -- client B's admission must find a candidate to evict.
  ASSERT_TRUE(WaitForStats(
      server, [](const ServerStats& s) { return s.detached == 1; }));

  // Client B: a different identity that needs the budget -> the parked A
  // is evicted to disk to make room. Retries cover the benign race where
  // the eviction claim loses to A's session still absorbing its backlog
  // (the refusal is Unavailable, so the retry resolves it).
  stream::MemoryEdgeStream source_b(el);
  FeedClientOptions feed_b = TestFeedOptions(*port, 99, 20);
  feed_b.sleep_override = [](std::uint64_t millis) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<std::uint64_t>(millis, 10)));
  };
  auto b = RunFeedClient(source_b, feed_b);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->final_snapshot.triangles, expected);

  // A's owner returns: restored from the on-disk snapshot, resumes from
  // the restored ack, finishes bit-identical to the isolated run.
  FeedClientOptions feed_a2 = TestFeedOptions(*port, 31, 0);
  stream::MemoryEdgeStream source_a2(el);
  auto restored = RunFeedClient(source_a2, feed_a2);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->final_snapshot.final_result);
  EXPECT_EQ(restored->final_snapshot.edges, el.size());
  EXPECT_EQ(restored->final_snapshot.triangles, expected);
  // The resumed attempt only sent what the checkpoint had not absorbed.
  EXPECT_LT(restored->events_sent, el.size());

  server.Stop();
  server.Wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.detached, 1u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.restored, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.memory_used, 0u);

  for (const char* name : {"/stream-31.ckpt", "/stream-31.ckpt.prev",
                           "/stream-99.ckpt", "/stream-99.ckpt.prev"}) {
    std::remove((ckpt_dir + name).c_str());
  }
  ::rmdir(ckpt_dir.c_str());
}

}  // namespace
}  // namespace engine
}  // namespace tristream
