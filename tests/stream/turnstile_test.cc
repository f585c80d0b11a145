// Turnstile (TRIS v2) coverage: event round-trips through files (FILE and
// mmap readers), queues, and text; v1 compatibility (passthrough writes,
// all-insert decoding); and the loud-failure contract for edge-only reads
// (table-driven over every source and decorator), truncation, and bad op
// bytes.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fault/faulty_stream.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_source.h"
#include "stream/edge_stream.h"
#include "stream/mmap_io.h"
#include "stream/queue_stream.h"
#include "stream/socket_stream.h"
#include "stream/text_io.h"

namespace tristream {
namespace stream {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A small event sequence with interleaved deletes (and a re-insert).
EdgeEventList SampleEvents() {
  EdgeEventList ev;
  ev.Add(Edge(0, 1));
  ev.Add(Edge(1, 2));
  ev.Add(Edge(0, 1), EdgeOp::kDelete);
  ev.Add(Edge(2, 3));
  ev.Add(Edge(0, 1));  // re-insert after delete
  ev.Add(Edge(1, 2), EdgeOp::kDelete);
  return ev;
}

EdgeEventList InsertOnlyEvents() {
  EdgeEventList ev;
  ev.Add(Edge(0, 1));
  ev.Add(Edge(1, 2));
  ev.Add(Edge(2, 3));
  return ev;
}

std::string FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, got);
  }
  std::fclose(f);
  return content;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Drains a stream through the event API into an EdgeEventList.
EdgeEventList DrainEvents(EdgeStream& s, std::size_t batch = 2) {
  EdgeEventList out;
  EventScratch scratch;
  for (;;) {
    const EventBatchView view = s.NextEventBatchView(batch, &scratch);
    if (view.empty()) break;
    for (std::size_t i = 0; i < view.size(); ++i) {
      out.Add(view.edges[i], view.op(i));
    }
  }
  return out;
}

void ExpectSameEvents(const EdgeEventList& got, const EdgeEventList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.edges[i], want.edges[i]) << "event " << i;
    EXPECT_EQ(got.op(i), want.op(i)) << "event " << i;
  }
}

// --------------------------------------------------- v1 passthrough write

TEST(TurnstileWriteTest, InsertOnlyEventsWriteByteIdenticalV1) {
  const EdgeEventList ev = InsertOnlyEvents();
  graph::EdgeList el;
  for (const Edge& e : ev.edges) el.Add(e);

  const std::string as_edges = TempPath("turnstile_v1_edges.tris");
  const std::string as_events = TempPath("turnstile_v1_events.tris");
  ASSERT_TRUE(WriteBinaryEdges(as_edges, el).ok());
  ASSERT_TRUE(WriteBinaryEvents(as_events, ev).ok());
  EXPECT_EQ(FileBytes(as_edges), FileBytes(as_events));
}

TEST(TurnstileWriteTest, InsertOnlyTextEventsWriteByteIdentical) {
  const EdgeEventList ev = InsertOnlyEvents();
  graph::EdgeList el;
  for (const Edge& e : ev.edges) el.Add(e);

  const std::string as_edges = TempPath("turnstile_text_edges.txt");
  const std::string as_events = TempPath("turnstile_text_events.txt");
  ASSERT_TRUE(WriteTextEdges(as_edges, el).ok());
  ASSERT_TRUE(WriteTextEvents(as_events, ev).ok());
  EXPECT_EQ(FileBytes(as_edges), FileBytes(as_events));
}

// -------------------------------------------------------- v2 file layout

TEST(TurnstileWriteTest, DeleteCarryingEventsWriteV2SoALayout) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_v2_layout.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());

  const std::string bytes = FileBytes(path);
  ASSERT_EQ(bytes.size(), kTrisHeaderBytes + ev.size() * kTrisEventBytes);
  EXPECT_EQ(bytes.substr(0, 4), "TRIS");
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]), kTrisVersion2);
  // Trailing op section, one byte per event, after the v1-identical pairs.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(
                  bytes[kTrisHeaderBytes + ev.size() * sizeof(Edge) + i]),
              static_cast<std::uint8_t>(ev.op(i)))
        << "op " << i;
  }
}

// ------------------------------------------------------------ round-trips

TEST(TurnstileRoundTripTest, ReadBinaryEventsRoundTripsV2) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_read.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  auto r = ReadBinaryEvents(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameEvents(*r, ev);
}

TEST(TurnstileRoundTripTest, FileReaderDeliversV2Events) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_file.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  auto opened = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->turnstile());
  EXPECT_EQ((*opened)->version(), kTrisVersion2);
  const EdgeEventList got = DrainEvents(**opened);
  ExpectSameEvents(got, ev);
  EXPECT_TRUE((*opened)->status().ok());
}

TEST(TurnstileRoundTripTest, MmapReaderDeliversV2Events) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_mmap.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->turnstile());
  EXPECT_TRUE((*opened)->stable_views());
  const EdgeEventList got = DrainEvents(**opened);
  ExpectSameEvents(got, ev);
  EXPECT_TRUE((*opened)->status().ok());
}

TEST(TurnstileRoundTripTest, V1FileDecodesAsAllInserts) {
  graph::EdgeList el;
  el.Add(4, 5);
  el.Add(5, 6);
  const std::string path = TempPath("turnstile_v1_as_events.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());

  auto opened = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE((*opened)->turnstile());
  EventScratch scratch;
  const EventBatchView view = (*opened)->NextEventBatchView(16, &scratch);
  ASSERT_EQ(view.size(), el.size());
  EXPECT_TRUE(view.all_inserts());

  auto events = ReadBinaryEvents(path);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), el.size());
  EXPECT_FALSE(events->has_deletes());
}

TEST(TurnstileRoundTripTest, TextEventsRoundTrip) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_text.txt");
  ASSERT_TRUE(WriteTextEvents(path, ev).ok());
  auto r = ReadTextEvents(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameEvents(*r, ev);
}

TEST(TurnstileRoundTripTest, QueueEventsRoundTrip) {
  const EdgeEventList ev = SampleEvents();
  QueueEdgeStream q(64);
  ASSERT_EQ(q.PushEvents(ev.edges, ev.ops), ev.size());
  q.Close();
  EXPECT_TRUE(q.turnstile());
  const EdgeEventList got = DrainEvents(q, 3);
  ExpectSameEvents(got, ev);
  EXPECT_TRUE(q.status().ok());
}

TEST(TurnstileRoundTripTest, OpenEdgeSourceReportsTurnstile) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_source_info.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  EdgeSourceInfo info;
  auto source = OpenEdgeSource(path, {}, &info);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(info.turnstile);
  EXPECT_EQ(info.total_edges, ev.size());
  const EdgeEventList got = DrainEvents(**source, 4);
  ExpectSameEvents(got, ev);
}

// ------------------------------------------------- loud-failure contract

TEST(TurnstileFailureTest, EdgeOnlyReadOfDeleteStreamIsInvalidArgument) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_edge_only.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());

  auto edges = ReadBinaryEdges(path);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kInvalidArgument);

  for (const bool use_mmap : {false, true}) {
    auto opened = OpenEdgeSource(path, {.prefer_mmap = use_mmap});
    ASSERT_TRUE(opened.ok());
    std::vector<Edge> batch;
    std::uint64_t delivered = 0;
    while ((*opened)->NextBatch(4, &batch) > 0) delivered += batch.size();
    const Status status = (*opened)->status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "mmap=" << use_mmap << ": " << status.ToString();
    // Nothing at or past the first delete may have been served as an edge.
    EXPECT_LE(delivered, 2u);
  }
}

TEST(TurnstileFailureTest, QueueEdgeOnlyReadFailsAtFirstDelete) {
  QueueEdgeStream q(64);
  ASSERT_TRUE(q.PushEvent({Edge(0, 1), EdgeOp::kInsert}));
  ASSERT_TRUE(q.PushEvent({Edge(0, 1), EdgeOp::kDelete}));
  q.Close();
  std::vector<Edge> batch;
  EXPECT_EQ(q.NextBatch(1, &batch), 1u);  // the insert drains fine
  EXPECT_EQ(q.NextBatch(1, &batch), 0u);  // the delete refuses edge form
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(TurnstileFailureTest, TruncatedPairSectionIsCorruptData) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_trunc_pairs.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  std::string bytes = FileBytes(path);
  // Cut inside the pair section (before any op byte).
  bytes.resize(kTrisHeaderBytes + 3);
  WriteRaw(path, bytes);

  EXPECT_EQ(ReadBinaryEvents(path).status().code(), StatusCode::kCorruptData);
  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruptData);
}

TEST(TurnstileFailureTest, TruncatedOpSectionIsCorruptData) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_trunc_ops.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  std::string bytes = FileBytes(path);
  bytes.resize(bytes.size() - 2);  // pairs intact, op section short
  WriteRaw(path, bytes);

  EXPECT_EQ(ReadBinaryEvents(path).status().code(), StatusCode::kCorruptData);
  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruptData);
}

TEST(TurnstileFailureTest, BadOpByteIsCorruptData) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_bad_op.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  std::string bytes = FileBytes(path);
  bytes[bytes.size() - 1] = 7;  // neither insert nor delete
  WriteRaw(path, bytes);

  EXPECT_EQ(ReadBinaryEvents(path).status().code(), StatusCode::kCorruptData);

  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_TRUE(mapped.ok());  // mmap validates ops lazily, on delivery
  const EdgeEventList drained = DrainEvents(**mapped, 64);
  EXPECT_LT(drained.size(), ev.size());
  EXPECT_EQ((*mapped)->status().code(), StatusCode::kCorruptData);
}

// --------------------------------- text parser rejection (regression set)

TEST(TurnstileTextTest, MalformedLinesAreLineNumberedInvalidArgument) {
  struct Case {
    const char* content;
    const char* needle;
  };
  const Case cases[] = {
      {"1 2\n-3 4\n", "line 2"},           // negative source id
      {"1 2\n3 -4\n", "line 2"},           // negative target id
      {"4294967296 1\n", "line 1"},        // overflows u32
      {"1 4294967296\n", "line 1"},        // overflows u32
      {"1 2\n1 2 banana\n3 4\n", "line 2"},  // trailing garbage
      {"1 2 +2\n", "line 1"},              // bad op token
  };
  for (const Case& c : cases) {
    auto r = ParseTextEvents(c.content);
    ASSERT_FALSE(r.ok()) << c.content;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.content;
    EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
        << c.content << " -> " << r.status().ToString();
  }
}

TEST(TurnstileTextTest, EdgeOnlyParseRejectsDeleteLineWithLineNumber) {
  auto r = ParseTextEdges("1 2\n1 2 -1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
}

TEST(TurnstileTextTest, OpColumnParses) {
  auto r = ParseTextEvents("1 2\n1 2 -1\n3 4 +1\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ(r->op(0), EdgeOp::kInsert);
  EXPECT_EQ(r->op(1), EdgeOp::kDelete);
  EXPECT_EQ(r->op(2), EdgeOp::kInsert);
}

// ----------------------------------------------- reset clears event state

TEST(TurnstileRoundTripTest, ResetReplaysV2File) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_reset.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  for (const bool use_mmap : {false, true}) {
    auto opened = OpenEdgeSource(path, {.prefer_mmap = use_mmap});
    ASSERT_TRUE(opened.ok());
    ExpectSameEvents(DrainEvents(**opened), ev);
    (*opened)->Reset();
    ExpectSameEvents(DrainEvents(**opened), ev);
  }
}

// ------------------------------- edge-only contract, every source at once
//
// The edge-only pulls are EdgeStream shims over the one event pull, so
// every source and decorator must agree with its own event view on
// insert-only input and refuse, stickily, the whole batch holding the
// first delete.

/// One row of the contract table.
struct SourceCase {
  std::string name;
  /// A fresh stream serving `events` from the first event on (`events`
  /// outlives it).
  std::function<std::shared_ptr<EdgeStream>(const EdgeEventList&)> open;
  /// Reset() is legal: a live socket cannot replay.
  bool resets = true;
  /// After Reset() the events come again: a reset queue reopens empty.
  bool replays = true;
};

void PrintTo(const SourceCase& c, std::ostream* out) { *out << c.name; }

/// Writes `events` to a fresh file and opens it through OpenEdgeSource.
std::shared_ptr<EdgeStream> OpenFile(const EdgeEventList& events, bool text,
                                     EdgeSourceOptions options) {
  static int serial = 0;
  const std::string path = TempPath("contract_" + std::to_string(serial++) +
                                    (text ? ".txt" : ".tris"));
  const Status written = text ? WriteTextEvents(path, events)
                              : WriteBinaryEvents(path, events);
  EXPECT_TRUE(written.ok()) << written.ToString();
  auto opened = OpenEdgeSource(path, options);
  std::remove(path.c_str());  // the open stream keeps what it needs
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  return std::shared_ptr<EdgeStream>(std::move(*opened));
}

/// A socket stream whose peer sent `events` in frames of three and left.
std::shared_ptr<EdgeStream> OpenSocket(const EdgeEventList& events) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::span<const Edge> edges(events.edges);
  for (std::size_t at = 0; at < events.size(); at += 3) {
    const std::size_t n = std::min<std::size_t>(3, events.size() - at);
    const std::span<const EdgeOp> ops =
        events.ops.empty() ? std::span<const EdgeOp>{}
                           : std::span<const EdgeOp>(events.ops).subspan(at, n);
    EXPECT_TRUE(WriteEventFrame(fds[0], edges.subspan(at, n), ops).ok());
  }
  ::close(fds[0]);
  auto source = SocketEdgeStream::FromFd(fds[1]);
  EXPECT_TRUE(source.ok());
  return std::shared_ptr<EdgeStream>(std::move(*source));
}

std::shared_ptr<EdgeStream> OpenQueue(const EdgeEventList& events) {
  auto queue = std::make_shared<QueueEdgeStream>(1024);
  EXPECT_EQ(queue->PushEvents(events.edges, events.ops), events.size());
  queue->Close();
  return queue;
}

/// FaultyEdgeStream does not own its inner stream.
struct FaultyOverMemory {
  explicit FaultyOverMemory(const EdgeEventList& events) : inner(events) {}
  MemoryEdgeStream inner;
  fault::FaultyEdgeStream faulty{inner, fault::FaultSchedule()};
};

std::vector<SourceCase> ContractCases() {
  return {
      {"Memory",
       [](const EdgeEventList& ev) {
         return std::make_shared<MemoryEdgeStream>(ev);
       }},
      {"Text",
       [](const EdgeEventList& ev) { return OpenFile(ev, true, {}); }},
      {"Mmap",
       [](const EdgeEventList& ev) { return OpenFile(ev, false, {}); }},
      {"File",
       [](const EdgeEventList& ev) {
         return OpenFile(ev, false, {.prefer_mmap = false});
       }},
      {"Queue", OpenQueue, true, false},
      {"Socket", OpenSocket, false, false},
      {"DedupOverMmap",
       [](const EdgeEventList& ev) {
         return OpenFile(ev, false, {.dedup = true});
       }},
      {"DedupOverFile",
       [](const EdgeEventList& ev) {
         return OpenFile(ev, false, {.prefer_mmap = false, .dedup = true});
       }},
      {"FaultyOverMemory",
       [](const EdgeEventList& ev) {
         auto holder = std::make_shared<FaultyOverMemory>(ev);
         return std::shared_ptr<EdgeStream>(holder, &holder->faulty);
       }},
  };
}

enum class Pull { kCopy, kView, kEvents };

/// Drains `s` with `max_edges`-sized pulls of one kind; returns the edges
/// of each batch, up to the first empty one.
std::vector<std::vector<Edge>> DrainBatches(EdgeStream& s, Pull pull,
                                            std::size_t max_edges) {
  std::vector<std::vector<Edge>> batches;
  std::vector<Edge> scratch;
  EventScratch events;
  for (;;) {
    std::vector<Edge> batch;
    if (pull == Pull::kCopy) {
      s.NextBatch(max_edges, &batch);
    } else if (pull == Pull::kView) {
      const std::span<const Edge> view = s.NextBatchView(max_edges, &scratch);
      batch.assign(view.begin(), view.end());
    } else {
      const EventBatchView view = s.NextEventBatchView(max_edges, &events);
      batch.assign(view.edges.begin(), view.edges.end());
    }
    if (batch.empty()) return batches;
    batches.push_back(std::move(batch));
  }
}

/// Inserts of a simple graph: a path and its chords.
EdgeEventList ContractInserts() {
  EdgeEventList ev;
  for (VertexId v = 0; v < 6; ++v) {
    ev.Add(Edge(v, v + 1));
    ev.Add(Edge(v, v + 2));
  }
  return ev;
}

/// First delete at position 5. Every delete removes a live edge, so a
/// dedup filter admits every event unchanged.
EdgeEventList ContractEvents() {
  EdgeEventList ev;
  for (VertexId v = 0; v < 5; ++v) ev.Add(Edge(v, v + 1));
  ev.Add(Edge(1, 2), EdgeOp::kDelete);
  ev.Add(Edge(5, 6));
  ev.Add(Edge(0, 1), EdgeOp::kDelete);
  ev.Add(Edge(1, 2));
  return ev;
}
constexpr std::size_t kContractFirstDelete = 5;

class EdgeOnlyContractTest : public ::testing::TestWithParam<SourceCase> {};

TEST_P(EdgeOnlyContractTest, InsertOnlyPullsYieldIdenticalBatches) {
  const SourceCase& c = GetParam();
  const EdgeEventList events = ContractInserts();
  for (const std::size_t max_edges : {1, 3, 4, 16}) {
    SCOPED_TRACE("max_edges=" + std::to_string(max_edges));
    const auto by_events = DrainBatches(*c.open(events), Pull::kEvents,
                                        max_edges);
    EXPECT_EQ(DrainBatches(*c.open(events), Pull::kCopy, max_edges),
              by_events);
    EXPECT_EQ(DrainBatches(*c.open(events), Pull::kView, max_edges),
              by_events);
    std::vector<Edge> all;
    for (const std::vector<Edge>& batch : by_events) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(all, events.edges);
  }
}

TEST_P(EdgeOnlyContractTest, FirstDeleteRefusesItsWholeBatchStickily) {
  const SourceCase& c = GetParam();
  const EdgeEventList events = ContractEvents();
  for (const Pull pull : {Pull::kCopy, Pull::kView}) {
    for (const std::size_t max_edges : {1, 2, 3, 4, 16}) {
      SCOPED_TRACE(std::string(pull == Pull::kCopy ? "NextBatch" :
                                                     "NextBatchView") +
                   " max_edges=" + std::to_string(max_edges));
      const std::shared_ptr<EdgeStream> s = c.open(events);
      std::vector<Edge> delivered;
      for (const std::vector<Edge>& batch : DrainBatches(*s, pull,
                                                         max_edges)) {
        delivered.insert(delivered.end(), batch.begin(), batch.end());
      }
      // Every batch before the one holding the first delete, nothing more.
      ASSERT_EQ(delivered.size(),
                kContractFirstDelete / max_edges * max_edges);
      EXPECT_TRUE(std::equal(delivered.begin(), delivered.end(),
                             events.edges.begin()));
      EXPECT_EQ(s->status().code(), StatusCode::kInvalidArgument)
          << s->status().ToString();

      // Sticky: further edge-only calls return empty without pulling.
      const std::uint64_t pulled = s->edges_delivered();
      std::vector<Edge> batch{Edge(7, 8)};
      EXPECT_EQ(s->NextBatch(max_edges, &batch), 0u);
      EXPECT_TRUE(batch.empty());
      EXPECT_TRUE(s->NextBatchView(max_edges, &batch).empty());
      EXPECT_EQ(s->edges_delivered(), pulled);
      EXPECT_EQ(s->status().code(), StatusCode::kInvalidArgument);

      if (!c.resets) continue;
      s->Reset();
      EXPECT_TRUE(s->status().ok()) << s->status().ToString();
      if (c.replays) ExpectSameEvents(DrainEvents(*s, max_edges), events);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EverySource, EdgeOnlyContractTest, ::testing::ValuesIn(ContractCases()),
    [](const ::testing::TestParamInfo<SourceCase>& info) {
      return info.param.name;
    });

TEST(TurnstileFailureTest, DedupEdgeOnlyReadFailsAtFirstAdmittedDelete) {
  // The delete of (5, 6) removes nothing live: the filter drops it, so
  // the dedup stream's edge-only read runs on to the delete of (0, 1).
  EdgeEventList events;
  events.Add(Edge(0, 1));
  events.Add(Edge(5, 6), EdgeOp::kDelete);
  events.Add(Edge(1, 2));
  events.Add(Edge(0, 1), EdgeOp::kDelete);
  events.Add(Edge(2, 3));

  MemoryEdgeStream raw(events);
  std::vector<Edge> batch;
  EXPECT_EQ(raw.NextBatch(1, &batch), 1u);
  EXPECT_EQ(raw.NextBatch(1, &batch), 0u);
  EXPECT_EQ(raw.status().code(), StatusCode::kInvalidArgument);

  DedupEdgeStream dedup(std::make_unique<MemoryEdgeStream>(events));
  std::vector<Edge> delivered;
  while (dedup.NextBatch(1, &batch) > 0) {
    delivered.insert(delivered.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(delivered, (std::vector<Edge>{Edge(0, 1), Edge(1, 2)}));
  EXPECT_EQ(dedup.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stream
}  // namespace tristream
