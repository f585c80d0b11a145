// Timing decorators the benchmark wraps around the library's layer
// boundaries, from outside the program.
//
// Each decorator forwards every call to the object it wraps, unchanged,
// and only reads a steady clock around the calls that do work. Nothing
// else: no call is added, dropped, reordered or re-sized, so a traced run
// computes bit-identical estimates to an untraced one (perfbench_run checks
// this on every traced run, and perfbench_transparency checks it on its
// own).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/streaming_estimator.h"
#include "stream/edge_stream.h"

namespace perfbench {

/// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds the lifetime of the guard to `*sum`.
class ScopedSpan {
 public:
  explicit ScopedSpan(double* sum) : sum_(sum), start_(Now()) {}
  ~ScopedSpan() { *sum_ += Now() - start_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  double* sum_;
  double start_;
};

/// An EdgeStream that forwards to `inner` and records, for each non-empty
/// batch, the stream position it ends at and when it was handed out.
class TimedEdgeStream final : public tristream::stream::EdgeStream {
 public:
  /// When a batch ending at stream position `end` was handed out.
  struct Offer {
    std::uint64_t end = 0;
    double time = 0.0;
  };

  explicit TimedEdgeStream(std::unique_ptr<EdgeStream> inner)
      : owned_(std::move(inner)), inner_(owned_.get()) {}
  /// Non-owning: `inner` must outlive the decorator.
  explicit TimedEdgeStream(EdgeStream& inner) : inner_(&inner) {}

  std::size_t NextBatch(std::size_t max_edges,
                        std::vector<tristream::Edge>* batch) override {
    const double start = Now();
    const std::size_t n = inner_->NextBatch(max_edges, batch);
    Record(start, n);
    return n;
  }
  std::span<const tristream::Edge> NextBatchView(
      std::size_t max_edges, std::vector<tristream::Edge>* scratch) override {
    const double start = Now();
    const std::span<const tristream::Edge> view =
        inner_->NextBatchView(max_edges, scratch);
    Record(start, view.size());
    return view;
  }
  tristream::EventBatchView NextEventBatchView(
      std::size_t max_edges,
      tristream::stream::EventScratch* scratch) override {
    const double start = Now();
    const tristream::EventBatchView view =
        inner_->NextEventBatchView(max_edges, scratch);
    Record(start, view.size());
    return view;
  }
  bool turnstile() const override { return inner_->turnstile(); }
  bool stable_views() const override { return inner_->stable_views(); }
  bool ready(std::size_t max_edges) const override {
    return inner_->ready(max_edges);
  }
  /// Rewinds the wrapped stream; offers restart from position 0, busy
  /// time keeps accumulating.
  void Reset() override {
    inner_->Reset();
    position_ = 0;
    offers_.clear();
  }
  std::uint64_t edges_delivered() const override {
    return inner_->edges_delivered();
  }
  double io_seconds() const override { return inner_->io_seconds(); }
  tristream::Status status() const override { return inner_->status(); }

  /// Seconds spent inside the wrapped stream's batch calls.
  double busy_seconds() const { return busy_; }
  /// When the first batch call began: the moment the first event could be
  /// offered. 0 before any call.
  double first_call() const { return first_call_; }
  /// Non-empty batches handed out.
  std::uint64_t batches() const { return offers_.size(); }
  /// When the last call (normally the empty end-of-stream one) returned.
  double last_return() const { return last_return_; }
  /// When the newest non-empty batch was handed out; 0 before the first.
  double last_offer() const {
    return offers_.empty() ? 0.0 : offers_.back().time;
  }
  /// When the batch holding stream position `position` (1-based) was
  /// handed out; 0 when no batch reached it.
  double OfferTime(std::uint64_t position) const {
    const auto it = std::lower_bound(
        offers_.begin(), offers_.end(), position,
        [](const Offer& o, std::uint64_t p) { return o.end < p; });
    return it == offers_.end() ? 0.0 : it->time;
  }

 private:
  void Record(double start, std::size_t n) {
    const double end = Now();
    if (first_call_ == 0.0) first_call_ = start;
    busy_ += end - start;
    last_return_ = end;
    if (n == 0) return;
    position_ += n;
    offers_.push_back({position_, end});
  }

  std::unique_ptr<EdgeStream> owned_;
  EdgeStream* inner_;
  double busy_ = 0.0;
  double first_call_ = 0.0;
  double last_return_ = 0.0;
  std::uint64_t position_ = 0;
  std::vector<Offer> offers_;
};

/// A StreamingEstimator that forwards to `inner` and sums the time the
/// calling thread spends absorbing, flushing and reading estimates. For a
/// sharded estimator that absorbs asynchronously (tsb), absorb time is the
/// time the caller is blocked handing a batch over, not the shards' work.
class TimedEstimator final : public tristream::engine::StreamingEstimator {
 public:
  struct Times {
    double absorb = 0.0;
    double flush = 0.0;
    double estimate = 0.0;
    double total() const { return absorb + flush + estimate; }
  };

  /// Non-owning: `inner` must outlive the decorator.
  explicit TimedEstimator(StreamingEstimator& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  void BeginStream(
      const tristream::engine::StreamSourceTraits& traits) override {
    inner_.BeginStream(traits);
  }
  void ProcessEdges(std::span<const tristream::Edge> edges) override {
    ScopedSpan span(&times_.absorb);
    inner_.ProcessEdges(edges);
  }
  bool supports_deletions() const override {
    return inner_.supports_deletions();
  }
  void ProcessEvents(const tristream::EventBatchView& view) override {
    ScopedSpan span(&times_.absorb);
    inner_.ProcessEvents(view);
  }
  void Flush() override {
    ScopedSpan span(&times_.flush);
    inner_.Flush();
  }
  void Reset() override { inner_.Reset(); }
  std::uint64_t edges_processed() const override {
    return inner_.edges_processed();
  }
  double EstimateTriangles() override {
    ScopedSpan span(&times_.estimate);
    return inner_.EstimateTriangles();
  }
  bool has_wedge_estimates() const override {
    return inner_.has_wedge_estimates();
  }
  double EstimateWedges() override {
    ScopedSpan span(&times_.estimate);
    return inner_.EstimateWedges();
  }
  double EstimateTransitivity() override {
    ScopedSpan span(&times_.estimate);
    return inner_.EstimateTransitivity();
  }
  std::size_t preferred_batch_size() const override {
    return inner_.preferred_batch_size();
  }
  bool estimates_nonperturbing() const override {
    return inner_.estimates_nonperturbing();
  }
  std::size_t approx_memory_bytes() const override {
    return inner_.approx_memory_bytes();
  }
  bool checkpointable() const override { return inner_.checkpointable(); }
  std::uint64_t config_fingerprint() const override {
    return inner_.config_fingerprint();
  }
  tristream::Status SaveState(tristream::ckpt::ByteSink& sink) override {
    return inner_.SaveState(sink);
  }
  tristream::Status RestoreState(
      tristream::ckpt::ByteSource& source) override {
    return inner_.RestoreState(source);
  }

  const Times& times() const { return times_; }

 private:
  StreamingEstimator& inner_;
  Times times_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
