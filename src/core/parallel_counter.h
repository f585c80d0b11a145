// Multicore triangle counting by estimator sharding.
//
// The paper's conclusion notes that the experiments were CPU-bound and
// that neighborhood sampling "is amenable to parallelization" (realized in
// the authors' follow-up CIKM'13 work). This is the natural shared-memory
// parallelization: the r estimators are split into per-thread shards, each
// an independent bulk TriangleCounter with its own RNG stream. Every batch
// of edges is indexed once (core::BatchIndex: edgeIter's events, which by
// Observation 3.6 depend on the batch alone), the pool slots build that
// index together, and every shard then resolves its own estimators against
// it concurrently. A batch thus costs O(w) once plus O(r) split over the
// shards, not O(w) per shard. Estimator independence makes the parallel
// composition *exactly* the serial algorithm with a different RNG
// assignment -- all accuracy theorems carry over verbatim, and estimates
// aggregate across the union of shards.
//
// Execution substrate (pipeline/barrier protocol)
// -----------------------------------------------
// The counter owns a persistent util::ThreadPool with one slot per shard,
// two edge buffers and one BatchIndex:
//
//   caller thread:   fill buffer A  | fill buffer B   | fill buffer A ...
//   pool workers:                   | absorb buffer A | absorb buffer B ...
//
// When the fill buffer reaches the batch size w, the counter (1) waits for
// the in-flight generation, if any, to complete (the pool's generation
// barrier -- this is what keeps batch N+1 strictly after batch N on every
// shard, and what frees the index for reuse), then (2) resets the index
// to the filled buffer and dispatches one generation, and immediately
// starts filling the other buffer. Inside the generation slot k builds its
// owner partition of the index, all slots meet at a std::barrier, slot k
// fills the degree snapshots of its chunk of positions, the slots meet
// again, and slot k's shard absorbs the batch reading the now read-only
// index. Shard k is touched only by pool slot k between Dispatch and
// Wait, and only by the caller otherwise, so shards need no locking.
// Flush() dispatches any partial batch and then waits -- a full barrier,
// after which estimates may be read.
//
// Because the generation barrier preserves the batch boundaries and the
// per-shard batch order, and the index is a pure function of the batch
// (whatever the number of slots building it), pipelining changes *when*
// work happens but not *what* each shard computes: estimates are
// bit-identical to T serial TriangleCounters seeded the way the
// constructor seeds its shards and fed the same batches
// (parallel_counter_test locks this).
//
// Placement: shards are constructed inside a pool generation, so shard
// k's estimator arrays are first-touched by worker k, the thread that
// absorbs into them. Placement never changes what is computed.
//
// Zero-copy ingest: engine::StreamEngine drives any stream::EdgeStream
// through AbsorbBatchView(). Sources with stable views (mmap'd TRIS
// files, in-memory lists) have their spans dispatched to the shards with
// no staging copy, and the producer thread prefaults the next batch's
// pages while the workers absorb the current one -- I/O overlapped with
// estimator work.
//
// Estimate reads: rather than concatenating r per-estimator doubles on
// the caller, each worker folds its own shard's mean / median-of-means
// partials (TriangleCounter::ComputePartials) in one extra pool
// generation; the caller combines O(shards + groups) partials. Group
// boundaries replicate util::MedianOfMeans over the virtual concatenated
// vector, so the aggregate is the same statistic regardless of sharding.
//
// Determinism: runs are reproducible for a fixed (seed, num_threads,
// batch) triple (the ingest path does not affect them).

#ifndef TRISTREAM_CORE_PARALLEL_COUNTER_H_
#define TRISTREAM_CORE_PARALLEL_COUNTER_H_

#include <array>
#include <barrier>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/batch_index.h"
#include "core/triangle_counter.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace tristream {
namespace core {

/// Configuration for the sharded counter.
struct ParallelCounterOptions {
  /// Total estimators across all shards.
  std::uint64_t num_estimators = 1 << 20;
  /// Worker threads (= shards). 0 selects std::thread::hardware_concurrency.
  std::uint32_t num_threads = 0;
  std::uint64_t seed = 0x9a11e15eedULL;
  Aggregation aggregation = Aggregation::kMean;
  std::uint32_t median_groups = 12;
  /// Shared batch size w (0 = 8 * num_estimators / num_threads per shard).
  std::size_t batch_size = 0;
  /// Vector ISA for each shard's lane sweeps (forwarded to
  /// TriangleCounterOptions::simd; same bit-identity contract, same
  /// exclusion from the checkpoint fingerprint).
  SimdMode simd = SimdMode::kAuto;
};

/// Estimator-sharded bulk triangle counter.
class ParallelTriangleCounter {
 public:
  explicit ParallelTriangleCounter(const ParallelCounterOptions& options);
  ~ParallelTriangleCounter();

  /// Buffers one edge; full batches fan out to all shards in parallel.
  void ProcessEdge(const Edge& e);
  void ProcessEdges(std::span<const Edge> edges);

  /// Absorbs `view` as exactly one batch on every shard, with no staging
  /// copy -- the zero-copy dispatch hook engine::StreamEngine drives
  /// (after flushing any partially filled ProcessEdge buffer, so
  /// previously pushed edges keep their stream order ahead of the
  /// view's). May return while workers are still absorbing; the view must
  /// stay valid until the next AbsorbBatchView or Flush call. Views of at
  /// most batch_size() edges reproduce ProcessEdges' batch boundaries,
  /// keeping estimates bit-identical across ingest paths for a fixed
  /// (seed, num_threads).
  void AbsorbBatchView(std::span<const Edge> view);

  /// Absorbs buffered edges on all shards and waits for them (full
  /// barrier; afterwards estimates reflect everything pushed so far).
  void Flush();

  std::uint64_t edges_processed() const {
    return dispatched_edges_ + buffers_[fill_].size();
  }

  /// Edges sitting in the fill buffer, not yet dispatched to shards. Zero
  /// on the engine path (AbsorbBatchView bypasses the buffer), in which
  /// case Flush() is only a barrier and never perturbs shard batching.
  std::size_t buffered_edges() const { return buffers_[fill_].size(); }

  /// Aggregated estimates over the union of all shards' estimators.
  double EstimateTriangles();
  double EstimateWedges();
  double EstimateTransitivity();

  /// Number of shards actually in use.
  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Effective shared batch size w (the resolved 8r/threads default when
  /// options.batch_size was 0).
  std::size_t batch_size() const { return batch_size_; }

  /// Heap bytes held: every shard's estimator state and lane scratch
  /// (estimator_bytes, batch_scratch_bytes), plus the shared index and the
  /// two fill buffers (batch_scratch_bytes). Read only while no batch is
  /// in flight -- before the first dispatch, or after Flush() or an
  /// estimate read.
  TriangleCounter::MemoryStats ApproxMemoryUsage() const;

  /// Serializes the complete stream state as a sequence of per-shard
  /// blobs plus the partially filled fill buffer. Waits for any in-flight
  /// batch first (the same generation barrier every dispatch takes), so
  /// calling between AbsorbBatchView calls is race-free; it does NOT flush
  /// the fill buffer, which would create a batch boundary an uninterrupted
  /// run never sees.
  void SaveState(ckpt::ByteSink& sink);

  /// Restores a SaveState blob. The counter must be configured with the
  /// same (r, seed, num_threads) as the saver; the shard count is
  /// re-validated here. Shard state is written in place, preserving each
  /// shard's first-touch placement. On failure the state is unspecified.
  Status RestoreState(ckpt::ByteSource& source);

 private:
  /// Dispatches a view (the fill buffer or a mapped span) to all shards
  /// and returns as soon as the workers own it, swapping fill buffers; the
  /// view must stay valid until the next barrier.
  void DispatchView(std::span<const Edge> view);

  /// Blocks until no batch is in flight on the pool.
  void WaitForInFlight();

  /// (Re)publishes the steady-state absorb task to the pool -- the one
  /// Dispatch() re-runs per batch.
  void PublishAbsorbTask();

  /// Ensures cached_triangles_/cached_wedges_ reflect everything pushed so
  /// far: Flush(), then one extra pool generation in which every worker
  /// reduces its own shard (TriangleCounter::ComputePartials) and an
  /// O(shards + median_groups) combine on the caller. One barrier thus
  /// serves all three estimate reads.
  void EnsureAggregates();

  ParallelCounterOptions options_;
  std::vector<std::unique_ptr<TriangleCounter>> shards_;
  /// Global index of each shard's first estimator (prefix sums of shard
  /// sizes), fixing the median-of-means group geometry.
  std::vector<std::uint64_t> shard_first_;
  /// Per-slot reduction results, written by pool workers during the
  /// aggregation generation (slot k writes only partials_[k]).
  std::vector<TriangleCounter::EstimatorPartials> partials_;
  /// Median-of-means group count in effect (0 = mean aggregation).
  std::uint32_t partial_groups_ = 0;
  /// Double buffer: buffers_[fill_] is being filled by the caller; the
  /// other buffer may be in flight on the pool.
  std::array<std::vector<Edge>, 2> buffers_;
  /// What every worker's absorb generation reads. Written only while the
  /// pool is idle (DispatchView's barrier publishes it).
  std::span<const Edge> view_;
  /// The shared index of view_: reset by the caller while the pool is
  /// idle, built by all slots inside the absorb generation, then read by
  /// every shard.
  BatchIndex index_;
  /// Separates the index build phases inside the absorb generation.
  std::unique_ptr<std::barrier<>> barrier_;
  /// Estimators in the largest shard (shards differ by at most one).
  std::uint64_t largest_shard_ = 0;
  /// True when the absorb task is the one currently published to the pool
  /// (EnsureAggregates' reduction generation unpublishes it).
  bool absorb_task_published_ = false;
  int fill_ = 0;
  std::size_t batch_size_;
  std::uint64_t dispatched_edges_ = 0;
  bool in_flight_ = false;
  bool aggregates_valid_ = false;
  double cached_triangles_ = 0.0;
  double cached_wedges_ = 0.0;
  /// Declared last: its destructor drains in-flight work while shards_ and
  /// buffers_ are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_PARALLEL_COUNTER_H_
