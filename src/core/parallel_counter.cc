#include "core/parallel_counter.h"

#include <algorithm>
#include <barrier>
#include <limits>
#include <thread>

#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tristream {
namespace core {

ParallelTriangleCounter::ParallelTriangleCounter(
    const ParallelCounterOptions& options)
    : options_(options) {
  TRISTREAM_CHECK(options.num_estimators > 0);
  std::uint32_t threads = options.num_threads != 0
                              ? options.num_threads
                              : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(threads, options.num_estimators));

  // Derive per-shard seeds from the base seed so (seed, threads) pins the
  // whole run. Shard options are fully computed up front because the
  // shards themselves are constructed on their own workers below; the
  // seed sequence is identical either way.
  Rng seeder(options.seed ^ (0x517a9dULL * threads));
  const std::uint64_t base = options.num_estimators / threads;
  const std::uint64_t remainder = options.num_estimators % threads;
  std::vector<TriangleCounterOptions> shard_opts(threads);
  std::uint64_t first = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    TriangleCounterOptions& shard_opt = shard_opts[t];
    shard_opt.num_estimators = base + (t < remainder ? 1 : 0);
    shard_opt.seed = seeder.Next();
    shard_opt.aggregation = options.aggregation;
    shard_opt.median_groups = options.median_groups;
    shard_opt.simd = options.simd;
    // Shards never self-batch: this wrapper owns batching so that all
    // shards see identical batch boundaries.
    shard_opt.batch_size = std::numeric_limits<std::size_t>::max();
    shard_first_.push_back(first);
    first += shard_opt.num_estimators;
  }
  // The largest shard decides whether the shared index carries the Bloom
  // filter: a shard probes it exactly when w * 8 <= its r.
  largest_shard_ = base + (remainder > 0 ? 1 : 0);
  barrier_ = std::make_unique<std::barrier<>>(threads);
  shards_.resize(threads);
  partials_.resize(threads);
  partial_groups_ = options.aggregation == Aggregation::kMedianOfMeans
                        ? options.median_groups
                        : 0;
  batch_size_ = options.batch_size != 0
                    ? options.batch_size
                    : static_cast<std::size_t>(8 * options.num_estimators /
                                               threads);
  if (batch_size_ == 0) batch_size_ = 1;
  buffers_[0].reserve(batch_size_);
  buffers_[1].reserve(batch_size_);

  pool_ = std::make_unique<ThreadPool>(threads);

  // Construction generation: shard k is built by worker k, so its
  // estimator arrays and scratch tables are first-touched by the thread
  // that absorbs into them. The shard seeds were fixed above, so where
  // construction runs cannot affect results.
  pool_->Dispatch([this, &shard_opts](std::size_t slot) {
    shards_[slot] = std::make_unique<TriangleCounter>(shard_opts[slot]);
  });
  pool_->Wait();
  // Publish the steady-state absorb task now: the construction lambda
  // above captured stack locals and must not stay reachable through the
  // pool once this constructor returns.
  PublishAbsorbTask();
}

void ParallelTriangleCounter::PublishAbsorbTask() {
  // One generation per batch: the slots build the shared index together
  // (two phases, each closed by the barrier), then every shard resolves
  // its own lanes against it.
  pool_->SetTask([this](std::size_t slot) {
    const auto part = static_cast<std::uint32_t>(slot);
    index_.BuildPart(part);
    barrier_->arrive_and_wait();
    index_.FinishPart(part);
    barrier_->arrive_and_wait();
    shards_[slot]->AbsorbIndexedBatch(view_, index_);
  });
  absorb_task_published_ = true;
}

ParallelTriangleCounter::~ParallelTriangleCounter() {
  // The pool's destructor drains any in-flight generation before the
  // buffers and shards it references go away (member order guarantees
  // pool_ is destroyed first).
}

void ParallelTriangleCounter::ProcessEdge(const Edge& e) {
  buffers_[fill_].push_back(e);
  if (buffers_[fill_].size() >= batch_size_) DispatchView(buffers_[fill_]);
}

void ParallelTriangleCounter::ProcessEdges(std::span<const Edge> edges) {
  std::size_t offset = 0;
  while (offset < edges.size()) {
    std::vector<Edge>& fill = buffers_[fill_];
    const std::size_t take = std::min(edges.size() - offset,
                                      batch_size_ - fill.size());
    fill.insert(fill.end(), edges.begin() + offset,
                edges.begin() + offset + take);
    offset += take;
    if (fill.size() >= batch_size_) DispatchView(fill);
  }
}

void ParallelTriangleCounter::AbsorbBatchView(std::span<const Edge> view) {
  // Dispatch any partially filled buffer first so previously pushed edges
  // keep their stream order ahead of the view's.
  if (!buffers_[fill_].empty()) DispatchView(buffers_[fill_]);
  if (!view.empty()) DispatchView(view);
}

void ParallelTriangleCounter::Flush() {
  if (!buffers_[fill_].empty()) DispatchView(buffers_[fill_]);
  WaitForInFlight();
}

void ParallelTriangleCounter::DispatchView(std::span<const Edge> view) {
  aggregates_valid_ = false;
  WaitForInFlight();
  view_ = view;
  // The previous generation was the index's last reader; one index, reset
  // in place, serves every batch.
  index_.Reset(view, num_shards(), view.size() * 8 <= largest_shard_);
  // The batch travels through view_, not a lambda capture: the absorb
  // task is published once (SetTask) and re-dispatched per batch, so the
  // steady-state dispatch constructs no std::function at all.
  if (!absorb_task_published_) PublishAbsorbTask();
  pool_->Dispatch();
  in_flight_ = true;
  dispatched_edges_ += view.size();
  // Keep filling the other buffer while the workers absorb this one.
  fill_ ^= 1;
  buffers_[fill_].clear();
}

void ParallelTriangleCounter::WaitForInFlight() {
  if (in_flight_) {
    pool_->Wait();
    in_flight_ = false;
  }
}

void ParallelTriangleCounter::EnsureAggregates() {
  Flush();
  if (aggregates_valid_) return;
  // Contract after Flush: nothing in flight, nothing buffered.
  TRISTREAM_DCHECK(!in_flight_);
  TRISTREAM_DCHECK(buffers_[fill_].empty());
  // The reduction generation: slot k folds shard k on its own worker, so
  // reading an estimate costs the caller O(shards), not O(r). This
  // replaces the published absorb task; the next batch dispatch
  // republishes it.
  pool_->Dispatch([this](std::size_t slot) {
    partials_[slot] = shards_[slot]->ComputePartials(
        shard_first_[slot], options_.num_estimators, partial_groups_);
  });
  absorb_task_published_ = false;
  pool_->Wait();

  const bool grouped = partial_groups_ > 1 &&
                       options_.num_estimators > partial_groups_;
  if (!grouped) {
    // Mean (Theorem 3.3): combine shard sums in shard order.
    double triangle_sum = 0.0;
    double wedge_sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& p : partials_) {
      triangle_sum += p.triangle_sum;
      wedge_sum += p.wedge_sum;
      count += p.count;
    }
    TRISTREAM_DCHECK(count == options_.num_estimators);
    const auto n = static_cast<double>(count);
    cached_triangles_ = count == 0 ? 0.0 : triangle_sum / n;
    cached_wedges_ = count == 0 ? 0.0 : wedge_sum / n;
  } else {
    // Median-of-means (Theorem 3.4): per-group sums accumulate across the
    // shards that straddle each group, in shard order; the group geometry
    // matches util::MedianOfMeans over the concatenated estimator vector.
    const std::size_t groups = partial_groups_;
    std::vector<double> triangle_sums(groups, 0.0);
    std::vector<double> wedge_sums(groups, 0.0);
    std::vector<std::uint64_t> counts(groups, 0);
    for (const auto& p : partials_) {
      for (std::size_t j = 0; j < p.group_counts.size(); ++j) {
        triangle_sums[p.first_group + j] += p.triangle_group_sums[j];
        wedge_sums[p.first_group + j] += p.wedge_group_sums[j];
        counts[p.first_group + j] += p.group_counts[j];
      }
    }
    std::vector<double> triangle_means;
    std::vector<double> wedge_means;
    triangle_means.reserve(groups);
    wedge_means.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      if (counts[g] == 0) continue;  // empty partition cell, as in MoM
      const auto size = static_cast<double>(counts[g]);
      triangle_means.push_back(triangle_sums[g] / size);
      wedge_means.push_back(wedge_sums[g] / size);
    }
    cached_triangles_ = Median(std::move(triangle_means));
    cached_wedges_ = Median(std::move(wedge_means));
  }
  aggregates_valid_ = true;
}

void ParallelTriangleCounter::SaveState(ckpt::ByteSink& sink) {
  // Quiesce: after the generation barrier no worker touches shard state,
  // and the fill buffer is only ever touched by the caller. Deliberately
  // no Flush() -- the partially filled buffer is serialized verbatim so
  // the resumed run dispatches it at the same boundary the uninterrupted
  // run would have.
  WaitForInFlight();
  sink.WriteU64(dispatched_edges_);
  sink.WriteU64(shards_.size());
  for (const auto& shard : shards_) {
    ckpt::ByteSink blob;
    shard->SaveState(blob);
    sink.WriteBlob(blob.data());
  }
  const std::vector<Edge>& fill = buffers_[fill_];
  sink.WriteU64(fill.size());
  for (const Edge& e : fill) {
    sink.WriteU32(e.u);
    sink.WriteU32(e.v);
  }
}

Status ParallelTriangleCounter::RestoreState(ckpt::ByteSource& source) {
  WaitForInFlight();
  aggregates_valid_ = false;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&dispatched_edges_));
  std::uint64_t shard_count = 0;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&shard_count));
  if (shard_count != shards_.size()) {
    return Status::CorruptData(
        "shard count mismatch: snapshot holds " + std::to_string(shard_count) +
        " shards, this counter resolved " + std::to_string(shards_.size()) +
        " (same num_threads required)");
  }
  for (auto& shard : shards_) {
    std::string_view blob;
    TRISTREAM_RETURN_IF_ERROR(source.ReadBlobView(&blob));
    ckpt::ByteSource shard_source(blob);
    TRISTREAM_RETURN_IF_ERROR(shard->RestoreState(shard_source));
    if (!shard_source.exhausted()) {
      return Status::CorruptData("shard blob has " +
                                 std::to_string(shard_source.remaining()) +
                                 " trailing bytes");
    }
  }
  std::uint64_t fill_count = 0;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&fill_count));
  if (fill_count > source.remaining() / 8) {
    return Status::CorruptData(
        "fill-buffer edge count " + std::to_string(fill_count) +
        " exceeds the bytes left in the snapshot");
  }
  std::vector<Edge>& fill = buffers_[fill_];
  fill.clear();
  fill.reserve(fill_count);
  for (std::uint64_t i = 0; i < fill_count; ++i) {
    Edge e;
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&e.u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&e.v));
    fill.push_back(e);
  }
  return Status::Ok();
}

TriangleCounter::MemoryStats ParallelTriangleCounter::ApproxMemoryUsage()
    const {
  TriangleCounter::MemoryStats stats;
  for (const auto& shard : shards_) {
    const auto shard_stats = shard->ApproxMemoryUsage();
    stats.per_estimator_bytes = shard_stats.per_estimator_bytes;
    stats.estimator_bytes += shard_stats.estimator_bytes;
    stats.batch_scratch_bytes += shard_stats.batch_scratch_bytes;
  }
  stats.batch_scratch_bytes +=
      index_.MemoryBytes() +
      (buffers_[0].capacity() + buffers_[1].capacity()) * sizeof(Edge);
  return stats;
}

double ParallelTriangleCounter::EstimateTriangles() {
  EnsureAggregates();
  return cached_triangles_;
}

double ParallelTriangleCounter::EstimateWedges() {
  EnsureAggregates();
  return cached_wedges_;
}

double ParallelTriangleCounter::EstimateTransitivity() {
  // One reduction generation serves all three estimate reads.
  EnsureAggregates();
  if (cached_wedges_ <= 0.0) return 0.0;
  return 3.0 * cached_triangles_ / cached_wedges_;
}

}  // namespace core
}  // namespace tristream
