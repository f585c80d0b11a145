// StreamingEstimator adapters for every triangle estimator in the repo,
// plus the name-based factory the CLI and benches share.
//
// Each adapter owns its counter and forwards the interface; Reset()
// reconstructs the counter from the stored options (same seed, same
// configuration), which is exactly "back to the freshly constructed
// state" for every engine here. The underlying counter stays reachable
// through counter() for algorithm-specific reads (shard counts, success
// rates, chain lengths, estimator state inspection in tests).
//
// Adapter notes:
//   * ParallelEstimator::ProcessEdges dispatches the incoming view as one
//     batch to every shard with no staging copy
//     (ParallelTriangleCounter::AbsorbBatchView). The view lifetime the
//     interface demands (valid until the next ProcessEdges/Flush) is
//     exactly what the shards need.
//   * The serial counters absorb synchronously, so their adapters are
//     plain forwarding; the bulk counter self-batches at its own w, so
//     engine batch boundaries never change its estimates.
//   * The baselines (Buriol, colorful, Jowhari-Ghodsi, first-edge
//     exhaustive) are strictly per-edge algorithms: batch boundaries
//     cannot affect their output.

#ifndef TRISTREAM_ENGINE_ESTIMATORS_H_
#define TRISTREAM_ENGINE_ESTIMATORS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "baseline/buriol.h"
#include "baseline/colorful.h"
#include "ckpt/serial.h"
#include "baseline/jowhari_ghodsi.h"
#include "core/dynamic_counter.h"
#include "core/parallel_counter.h"
#include "core/sliding_window.h"
#include "core/triangle_counter.h"
#include "engine/streaming_estimator.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace engine {

/// Serial bulk neighborhood-sampling counter (Theorem 3.5).
class BulkEstimator : public StreamingEstimator {
 public:
  explicit BulkEstimator(const core::TriangleCounterOptions& options)
      : options_(options),
        counter_(std::make_unique<core::TriangleCounter>(options)) {}

  const char* name() const override { return "bulk"; }
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->ProcessEdges(edges);
  }
  void Flush() override { counter_->Flush(); }
  void Reset() override {
    counter_ = std::make_unique<core::TriangleCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_processed();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }
  bool has_wedge_estimates() const override { return true; }
  double EstimateWedges() override { return counter_->EstimateWedges(); }
  double EstimateTransitivity() override {
    return counter_->EstimateTransitivity();
  }
  std::size_t preferred_batch_size() const override {
    return counter_->batch_size();
  }
  /// Safe exactly when no partial batch is pending: the counter
  /// self-batches at its own w, and Flush() on a partial buffer absorbs
  /// it early, changing the RNG trajectory.
  bool estimates_nonperturbing() const override {
    return counter_->pending_edges() == 0;
  }
  std::size_t approx_memory_bytes() const override {
    const auto stats = counter_->ApproxMemoryUsage();
    return stats.estimator_bytes + stats.batch_scratch_bytes;
  }
  bool checkpointable() const override { return true; }
  /// Everything that shapes the counter's RNG trajectory or state layout;
  /// the resolved batch size stands in for options_.batch_size == 0. The
  /// simd mode is deliberately absent: every ISA computes the same bits,
  /// so snapshots restore across dispatch choices (same policy as the
  /// parallel estimator's exclusion of pinning).
  std::uint64_t config_fingerprint() const override {
    ckpt::ConfigFingerprint fp;
    fp.Mix(name());
    fp.Mix(options_.num_estimators);
    fp.Mix(options_.seed);
    fp.Mix(static_cast<std::uint64_t>(options_.aggregation));
    fp.Mix(options_.median_groups);
    fp.Mix(counter_->batch_size());
    return fp.value();
  }
  Status SaveState(ckpt::ByteSink& sink) override {
    counter_->SaveState(sink);
    return Status::Ok();
  }
  Status RestoreState(ckpt::ByteSource& source) override {
    return counter_->RestoreState(source);
  }

  core::TriangleCounter& counter() { return *counter_; }

 private:
  core::TriangleCounterOptions options_;
  std::unique_ptr<core::TriangleCounter> counter_;
};

/// Estimator-sharded parallel neighborhood-sampling counter ("tsb", the
/// repo's headline engine).
class ParallelEstimator : public StreamingEstimator {
 public:
  explicit ParallelEstimator(const core::ParallelCounterOptions& options)
      : options_(options),
        counter_(std::make_unique<core::ParallelTriangleCounter>(options)) {}

  const char* name() const override { return "tsb"; }
  /// Dispatches the view as one batch to every shard, zero-copy; may
  /// return while workers are still absorbing (the engine keeps the view
  /// alive until the next call, which is all the shards need).
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->AbsorbBatchView(edges);
  }
  void Flush() override { counter_->Flush(); }
  void Reset() override {
    counter_ = std::make_unique<core::ParallelTriangleCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_processed();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }
  bool has_wedge_estimates() const override { return true; }
  double EstimateWedges() override { return counter_->EstimateWedges(); }
  double EstimateTransitivity() override {
    return counter_->EstimateTransitivity();
  }
  std::size_t preferred_batch_size() const override {
    return counter_->batch_size();
  }
  /// On the engine path the fill buffer stays empty (views bypass it via
  /// AbsorbBatchView), so Flush() is a pure barrier and estimates never
  /// perturb shard batching.
  bool estimates_nonperturbing() const override {
    return counter_->buffered_edges() == 0;
  }
  /// Coarse: r sampled states (cold + hot + snapshot copies) plus the
  /// per-shard double-buffered batch staging.
  std::size_t approx_memory_bytes() const override {
    return static_cast<std::size_t>(options_.num_estimators) * 3 *
               sizeof(core::EstimatorState) +
           static_cast<std::size_t>(counter_->num_shards()) * 2 *
               counter_->batch_size() * sizeof(Edge);
  }
  bool checkpointable() const override { return true; }
  /// Resolved shard count and batch size are mixed (not the raw options)
  /// so `--threads 0` cannot silently resolve differently across hosts.
  /// Pinning is excluded: it never changes what is computed.
  std::uint64_t config_fingerprint() const override {
    ckpt::ConfigFingerprint fp;
    fp.Mix(name());
    fp.Mix(options_.num_estimators);
    fp.Mix(options_.seed);
    fp.Mix(static_cast<std::uint64_t>(options_.aggregation));
    fp.Mix(options_.median_groups);
    fp.Mix(counter_->num_shards());
    fp.Mix(counter_->batch_size());
    return fp.value();
  }
  Status SaveState(ckpt::ByteSink& sink) override {
    counter_->SaveState(sink);
    return Status::Ok();
  }
  Status RestoreState(ckpt::ByteSource& source) override {
    return counter_->RestoreState(source);
  }

  core::ParallelTriangleCounter& counter() { return *counter_; }

 private:
  core::ParallelCounterOptions options_;
  std::unique_ptr<core::ParallelTriangleCounter> counter_;
};

/// Sequence-based sliding-window counter (Sec. 5.2). Estimates describe
/// the most recent window_size edges, not the whole stream.
class SlidingWindowEstimator : public StreamingEstimator {
 public:
  explicit SlidingWindowEstimator(const core::SlidingWindowOptions& options)
      : options_(options),
        counter_(
            std::make_unique<core::SlidingWindowTriangleCounter>(options)) {}

  const char* name() const override { return "window"; }
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->ProcessEdges(edges);
  }
  void Flush() override {}
  void Reset() override {
    counter_ = std::make_unique<core::SlidingWindowTriangleCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_seen();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }
  bool has_wedge_estimates() const override { return true; }
  double EstimateWedges() override { return counter_->EstimateWedges(); }
  double EstimateTransitivity() override {
    return counter_->EstimateTransitivity();
  }
  /// The chain update is strictly per-edge; 4K-edge pulls just amortize a
  /// live queue's lock traffic (the old driver's kPullEdges).
  std::size_t preferred_batch_size() const override { return 4096; }
  /// Coarse: the buffered window of edges plus r chain states.
  std::size_t approx_memory_bytes() const override {
    return static_cast<std::size_t>(options_.window_size) * sizeof(Edge) +
           static_cast<std::size_t>(options_.num_estimators) * 64;
  }
  bool checkpointable() const override { return true; }
  std::uint64_t config_fingerprint() const override {
    ckpt::ConfigFingerprint fp;
    fp.Mix(name());
    fp.Mix(options_.window_size);
    fp.Mix(options_.num_estimators);
    fp.Mix(options_.seed);
    fp.Mix(static_cast<std::uint64_t>(options_.aggregation));
    fp.Mix(options_.median_groups);
    return fp.value();
  }
  Status SaveState(ckpt::ByteSink& sink) override {
    counter_->SaveState(sink);
    return Status::Ok();
  }
  Status RestoreState(ckpt::ByteSource& source) override {
    return counter_->RestoreState(source);
  }

  core::SlidingWindowTriangleCounter& counter() { return *counter_; }

 private:
  core::SlidingWindowOptions options_;
  std::unique_ptr<core::SlidingWindowTriangleCounter> counter_;
};

/// Hash-sampling turnstile counter (after Bulteau et al., arXiv:1404.4696):
/// the one estimator in the repo that absorbs delete events, estimating
/// the live graph's triangle count. See core/dynamic_counter.h.
class DynamicEstimator : public StreamingEstimator {
 public:
  explicit DynamicEstimator(const core::DynamicCounterOptions& options)
      : options_(options),
        counter_(std::make_unique<core::DynamicTriangleCounter>(options)) {}

  const char* name() const override { return "dynamic"; }
  bool supports_deletions() const override { return true; }
  void ProcessEdges(std::span<const Edge> edges) override {
    for (const Edge& e : edges) counter_->ProcessEvent(e, EdgeOp::kInsert);
  }
  void ProcessEvents(const EventBatchView& view) override {
    counter_->ProcessEvents(view);
  }
  void Flush() override {}
  void Reset() override {
    counter_ = std::make_unique<core::DynamicTriangleCounter>(options_);
  }
  /// Stream positions here are *events* (inserts + deletes), matching how
  /// the session and checkpoint cadence count delivered batch entries.
  std::uint64_t edges_processed() const override {
    return counter_->events_seen();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }
  /// The sketch update is strictly per-event; moderate pulls amortize
  /// source lock traffic without changing anything the sketch computes.
  std::size_t preferred_batch_size() const override { return 4096; }
  std::size_t approx_memory_bytes() const override {
    return counter_->MemoryBytes();
  }
  bool checkpointable() const override { return true; }
  std::uint64_t config_fingerprint() const override {
    ckpt::ConfigFingerprint fp;
    fp.Mix(name());
    fp.Mix(options_.num_groups);
    fp.Mix(options_.seed);
    std::uint64_t p_bits;
    std::memcpy(&p_bits, &options_.sample_probability, sizeof(p_bits));
    fp.Mix(p_bits);
    fp.Mix(static_cast<std::uint64_t>(options_.aggregation));
    fp.Mix(options_.median_groups);
    return fp.value();
  }
  Status SaveState(ckpt::ByteSink& sink) override {
    counter_->SaveState(sink);
    return Status::Ok();
  }
  Status RestoreState(ckpt::ByteSource& source) override {
    return counter_->RestoreState(source);
  }

  core::DynamicTriangleCounter& counter() { return *counter_; }

 private:
  core::DynamicCounterOptions options_;
  std::unique_ptr<core::DynamicTriangleCounter> counter_;
};

/// Buriol et al. uniform-apex baseline (paper reference [5]).
class BuriolStreamEstimator : public StreamingEstimator {
 public:
  explicit BuriolStreamEstimator(const baseline::BuriolCounter::Options& o)
      : options_(o), counter_(std::make_unique<baseline::BuriolCounter>(o)) {}

  const char* name() const override { return "buriol"; }
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->ProcessEdges(edges);
  }
  void Flush() override {}
  void Reset() override {
    counter_ = std::make_unique<baseline::BuriolCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_processed();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }

  baseline::BuriolCounter& counter() { return *counter_; }

 private:
  baseline::BuriolCounter::Options options_;
  std::unique_ptr<baseline::BuriolCounter> counter_;
};

/// Pagh-Tsourakakis colorful sparsification baseline (reference [16]).
class ColorfulStreamEstimator : public StreamingEstimator {
 public:
  explicit ColorfulStreamEstimator(
      const baseline::ColorfulTriangleCounter::Options& o)
      : options_(o),
        counter_(std::make_unique<baseline::ColorfulTriangleCounter>(o)) {}

  const char* name() const override { return "colorful"; }
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->ProcessEdges(edges);
  }
  void Flush() override {}
  void Reset() override {
    counter_ = std::make_unique<baseline::ColorfulTriangleCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_processed();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }

  baseline::ColorfulTriangleCounter& counter() { return *counter_; }

 private:
  baseline::ColorfulTriangleCounter::Options options_;
  std::unique_ptr<baseline::ColorfulTriangleCounter> counter_;
};

/// Jowhari-Ghodsi blind-slot baseline (reference [9]).
class JowhariGhodsiStreamEstimator : public StreamingEstimator {
 public:
  explicit JowhariGhodsiStreamEstimator(
      const baseline::JowhariGhodsiCounter::Options& o)
      : options_(o),
        counter_(std::make_unique<baseline::JowhariGhodsiCounter>(o)) {}

  const char* name() const override { return "jg"; }
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->ProcessEdges(edges);
  }
  void Flush() override {}
  void Reset() override {
    counter_ = std::make_unique<baseline::JowhariGhodsiCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_processed();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }

  baseline::JowhariGhodsiCounter& counter() { return *counter_; }

 private:
  baseline::JowhariGhodsiCounter::Options options_;
  std::unique_ptr<baseline::JowhariGhodsiCounter> counter_;
};

/// Idealized O(Δ)-space first-edge exhaustive baseline.
class FirstEdgeStreamEstimator : public StreamingEstimator {
 public:
  explicit FirstEdgeStreamEstimator(
      const baseline::FirstEdgeExhaustiveCounter::Options& o)
      : options_(o),
        counter_(std::make_unique<baseline::FirstEdgeExhaustiveCounter>(o)) {}

  const char* name() const override { return "first-edge"; }
  void ProcessEdges(std::span<const Edge> edges) override {
    counter_->ProcessEdges(edges);
  }
  void Flush() override {}
  void Reset() override {
    counter_ = std::make_unique<baseline::FirstEdgeExhaustiveCounter>(options_);
  }
  std::uint64_t edges_processed() const override {
    return counter_->edges_processed();
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }

  baseline::FirstEdgeExhaustiveCounter& counter() { return *counter_; }

 private:
  baseline::FirstEdgeExhaustiveCounter::Options options_;
  std::unique_ptr<baseline::FirstEdgeExhaustiveCounter> counter_;
};

/// Cross-algorithm configuration for the factory. Fields irrelevant to the
/// selected algorithm are ignored; fields an algorithm *requires* in
/// advance (Buriol's vertex universe, JG's degree bound) are validated.
struct EstimatorConfig {
  std::uint64_t num_estimators = 1 << 17;
  std::uint64_t seed = 1;
  /// tsb only: worker shards (0 = hardware concurrency).
  std::uint32_t num_threads = 1;
  core::Aggregation aggregation = core::Aggregation::kMean;
  std::uint32_t median_groups = 12;
  /// tsb only: shared batch size w (0 = 8r/threads).
  std::size_t batch_size = 0;
  /// tsb/bulk: vector ISA for the lane sweeps (--simd). Bit-identical
  /// estimates under every choice; validated against the host CPU by
  /// MakeEstimator.
  SimdMode simd = SimdMode::kAuto;
  /// tsb only: pin worker k to its planned cpu; see
  /// core::ParallelCounterOptions::pin_threads.
  bool pin_threads = false;
  /// window only.
  std::uint64_t window_size = 1 << 16;
  /// dynamic only: independent hash groups.
  std::uint32_t dynamic_groups = 16;
  /// dynamic only: per-edge sampling probability p in (0, 1].
  double sample_probability = 0.5;
  /// buriol only: the advance-known vertex universe (required, > 0).
  VertexId num_vertices = 0;
  /// jg only: the a-priori degree bound Δ (required, > 0).
  std::uint64_t max_degree_bound = 0;
  /// colorful only.
  std::uint32_t num_colors = 8;
};

/// Builds the estimator named `algo`: "tsb" (the paper's algorithm,
/// sharded), "bulk" (serial), "window", "dynamic" (turnstile), "buriol",
/// "colorful", "jg", "first-edge". InvalidArgument on an unknown name or a
/// missing required parameter.
Result<std::unique_ptr<StreamingEstimator>> MakeEstimator(
    const std::string& algo, const EstimatorConfig& config);

/// The algo names MakeEstimator accepts, for usage strings.
const char* KnownAlgos();

}  // namespace engine
}  // namespace tristream

#endif  // TRISTREAM_ENGINE_ESTIMATORS_H_
