// The adjacency-stream abstraction.
//
// The paper's model (Sec. 1): a simple graph presented as a sequence of
// edges in arbitrary, possibly adversarial order. EdgeStream is the pull
// interface the counters consume -- batched, because the bulk algorithm
// (Sec. 3.3) and the paper's own experimental setup ("the algorithm
// receives edges in bulk, e.g. block reads from disk") are batch-oriented.
// A batch size of 1 degenerates to pure per-edge streaming.
//
// One pull serves every source: NextEventBatchView, a batch of events
// (edge + insert/delete op). The edge-only NextBatch/NextBatchView are
// shims defined once here over that pull, and they own the rule that an
// edge-only read of a delete fails loudly (see stream/README.md).

#ifndef TRISTREAM_STREAM_EDGE_STREAM_H_
#define TRISTREAM_STREAM_EDGE_STREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace stream {

/// Caller-owned staging for the event-batch pull (the SoA counterpart of
/// the plain std::vector<Edge> scratch): sources without stable views fill
/// these; sources with stable views ignore them and return spans into
/// their own storage.
struct EventScratch {
  std::vector<Edge> edges;
  std::vector<EdgeOp> ops;
};

/// Pull-based edge source. Implementations are single-pass but resettable
/// (the paper's algorithms are strictly one-pass; Reset exists for
/// multi-trial experiments).
///
/// Every source and decorator implements one pull, NextEventBatchView: the
/// turnstile model turns each edge into an event, and an insert-only
/// stream is simply an event stream without deletes. The edge-only
/// NextBatch/NextBatchView are shims, each over one event pull, and they
/// own the loud-failure rule: the first batch that holds a delete is
/// refused whole and sets a sticky InvalidArgument -- deletes are never
/// silently dropped or misread as inserts.
///
/// A source reports its own health through source_status() and rewinds
/// through Rewind(); status() and Reset() wrap those with the edge-only
/// failure. The edge-only shims, status() and Reset() stay virtual only so
/// a decorator that forwards every call verbatim (perfbench's
/// TimedEdgeStream) can time them.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Event pull: a view of up to `max_edges` next events; an empty view
  /// signals end of stream. An empty ops span means all inserts. Sources
  /// whose events already live in memory (MemoryEdgeStream, MmapEdgeStream)
  /// return spans into their own storage and ignore `scratch`; the others
  /// fill `*scratch`, which may be null only when stable_views() is true.
  /// Unless stable_views() is true, the view is invalidated by the next
  /// pull, by Reset(), and by any mutation of `*scratch`.
  virtual EventBatchView NextEventBatchView(std::size_t max_edges,
                                            EventScratch* scratch) = 0;

  /// Edge-only pull: a view of the next event batch's edges; an empty span
  /// signals end of stream or a refused batch (see status()). A source
  /// that stages its batches fills `*scratch` (never null), so the view
  /// has NextEventBatchView's lifetime with `*scratch` as the staging. The
  /// whole batch holding the first delete is refused: status() becomes a
  /// sticky InvalidArgument and later edge-only calls return empty without
  /// pulling, until Reset().
  virtual std::span<const Edge> NextBatchView(std::size_t max_edges,
                                              std::vector<Edge>* scratch);

  /// Copying edge-only pull: `*batch` receives the batch NextBatchView
  /// would return (cleared first); returns its size, 0 at end of stream
  /// or on a refused batch.
  virtual std::size_t NextBatch(std::size_t max_edges,
                                std::vector<Edge>* batch);

  /// True when this source may emit delete events (so edge-only reads can
  /// fail mid-stream with InvalidArgument). Purely informational; the
  /// per-batch truth is EventBatchView::all_inserts().
  virtual bool turnstile() const { return false; }

  /// True when every span a pull returns stays valid until the stream is
  /// destroyed (not merely until the next call). Pipelined consumers
  /// (engine::Session driving the sharded counter) use this to dispatch
  /// views to workers while already fetching the next batch.
  virtual bool stable_views() const { return false; }

  /// Scheduling hint: true when a pull of `max_edges` right now would
  /// return promptly instead of blocking on a producer. Sources that never
  /// block (files, memory, mmap) keep the default; live sources
  /// (QueueEdgeStream) report whether a full batch is buffered or the
  /// stream has closed. engine::Scheduler's ready queue is driven by this,
  /// so one stalled stream never parks a worker that other sessions need.
  /// Purely advisory: a false positive costs a blocking fetch, never a
  /// wrong estimate.
  virtual bool ready(std::size_t max_edges) const {
    (void)max_edges;
    return true;
  }

  /// Restarts the stream from the first event (Rewind()) and clears the
  /// sticky status, the edge-only refusal included.
  virtual void Reset();

  /// Total events delivered since construction/Reset.
  virtual std::uint64_t edges_delivered() const = 0;

  /// Cumulative wall-clock seconds spent on I/O (0 for in-memory sources).
  /// The paper reports I/O time separately from processing time (Table 3).
  virtual double io_seconds() const { return 0.0; }

  /// Sticky health: the edge-only refusal once a shim refused a batch,
  /// source_status() otherwise (the first failure wins). A short batch
  /// with ok() status means end of stream; a short batch with a non-OK
  /// status means the source failed mid-read and the events delivered so
  /// far are a prefix, not the whole stream. Reset() clears it.
  virtual Status status() const;

 protected:
  /// Rewinds the source itself (called by Reset()). The default
  /// CHECK-fails: a live source cannot replay.
  virtual void Rewind();

  /// The source's own sticky health: I/O failure, corruption, a producer's
  /// close status. Rewind() clears it.
  virtual Status source_status() const { return Status::Ok(); }

 private:
  Status edge_read_status_;
};

/// In-memory stream over a borrowed edge or event sequence, which must
/// outlive the stream. Views point straight into it.
class MemoryEdgeStream : public EdgeStream {
 public:
  /// Insert-only stream over an EdgeList's arrival order.
  explicit MemoryEdgeStream(const graph::EdgeList& edges)
      : edges_(&edges.edges()) {}
  /// Event stream; `events.ops` may be empty (all inserts).
  explicit MemoryEdgeStream(const EdgeEventList& events)
      : edges_(&events.edges), ops_(&events.ops) {}

  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  bool turnstile() const override;
  bool stable_views() const override { return true; }
  std::uint64_t edges_delivered() const override { return cursor_; }

 protected:
  void Rewind() override { cursor_ = 0; }

 private:
  const std::vector<Edge>* edges_;
  const std::vector<EdgeOp>* ops_ = nullptr;  // null: an EdgeList
  std::uint64_t cursor_ = 0;
};

/// Returns a copy of `edges` in a uniformly random arrival order
/// (deterministic per seed). This is how benches turn a generated graph
/// into an "arbitrary order" adjacency stream.
graph::EdgeList ShuffleStreamOrder(const graph::EdgeList& edges,
                                   std::uint64_t seed);

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_EDGE_STREAM_H_
