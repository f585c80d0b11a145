#include "core/triangle_counter.h"

#include <algorithm>
#include <limits>

#include "core/estimator_kernels.h"
#include "util/logging.h"
#include "util/stats.h"

namespace tristream {
namespace core {
namespace {

double TransitivityFrom(double triangles, double wedges) {
  if (wedges <= 0.0) return 0.0;
  return 3.0 * triangles / wedges;
}

SimdIsa ResolveIsaOrDie(SimdMode mode) {
  const std::optional<SimdIsa> isa = ResolveSimdIsa(mode);
  // Requesting an ISA the CPU lacks is a configuration error;
  // engine::MakeEstimator turns it into InvalidArgument before a counter
  // is ever constructed.
  TRISTREAM_CHECK(isa.has_value());
  return *isa;
}

// r1 endpoints are stored packed (u in the low word, v in the high word)
// so a candidate touches one cache line instead of two and the kernels
// cover 8 lanes per 512-bit load.
constexpr std::uint64_t PackUv(std::uint32_t u, std::uint32_t v) {
  return static_cast<std::uint64_t>(v) << 32 | u;
}
constexpr std::uint32_t UvLo(std::uint64_t uv) {
  return static_cast<std::uint32_t>(uv);
}
constexpr std::uint32_t UvHi(std::uint64_t uv) {
  return static_cast<std::uint32_t>(uv >> 32);
}

}  // namespace

double AggregateEstimates(const std::vector<double>& values,
                          Aggregation aggregation,
                          std::uint32_t median_groups) {
  switch (aggregation) {
    case Aggregation::kMean:
      return Mean(values);
    case Aggregation::kMedianOfMeans:
      return MedianOfMeans(values, median_groups);
  }
  return Mean(values);
}

// ------------------------------------------------------------------ naive

NaiveTriangleCounter::NaiveTriangleCounter(
    const TriangleCounterOptions& options)
    : options_(options),
      rng_(options.seed),
      estimators_(options.num_estimators) {
  TRISTREAM_CHECK(options.num_estimators > 0);
}

void NaiveTriangleCounter::ProcessEdge(const Edge& e) {
  ++edges_processed_;
  for (NeighborhoodSampler& est : estimators_) est.Process(e, rng_);
}

void NaiveTriangleCounter::ProcessEdges(std::span<const Edge> edges) {
  for (const Edge& e : edges) ProcessEdge(e);
}

double NaiveTriangleCounter::EstimateTriangles() const {
  std::vector<double> values;
  values.reserve(estimators_.size());
  for (const NeighborhoodSampler& est : estimators_) {
    values.push_back(est.TriangleEstimate());
  }
  return AggregateEstimates(values, options_.aggregation,
                            options_.median_groups);
}

double NaiveTriangleCounter::EstimateWedges() const {
  std::vector<double> values;
  values.reserve(estimators_.size());
  for (const NeighborhoodSampler& est : estimators_) {
    values.push_back(est.WedgeEstimate());
  }
  return AggregateEstimates(values, options_.aggregation,
                            options_.median_groups);
}

double NaiveTriangleCounter::EstimateTransitivity() const {
  return TransitivityFrom(EstimateTriangles(), EstimateWedges());
}

// ------------------------------------------------------------------- bulk

TriangleCounter::TriangleCounter(const TriangleCounterOptions& options)
    : options_(options),
      batch_size_(options.batch_size != 0
                      ? options.batch_size
                      : static_cast<std::size_t>(8 * options.num_estimators)),
      isa_(ResolveIsaOrDie(options.simd)),
      kernels_(&kernels::TableFor(isa_)),
      cold_(options.num_estimators),
      r1_pos_(options.num_estimators, kInvalidEdgeIndex),
      c_(options.num_estimators, 0),
      r1_uv_(options.num_estimators, 0),
      draw2_(options.num_estimators, 0),
      replacers_(options.num_estimators, 0),
      replace_batch_idx_(options.num_estimators, 0),
      candidates_(options.num_estimators, 0) {
  TRISTREAM_CHECK(options.num_estimators > 0);
  // Lane lists index estimators with 32-bit values.
  TRISTREAM_CHECK(options.num_estimators < 0xffffffffu);
  TRISTREAM_CHECK(batch_size_ > 0);
  // Callers may pass an infinite batch size to disable self-batching (the
  // parallel wrapper owns batch boundaries and never fills this buffer);
  // cap the eager reservation, and skip it for those callers.
  if (batch_size_ != std::numeric_limits<std::size_t>::max()) {
    pending_.reserve(std::min<std::size_t>(batch_size_, std::size_t{1} << 22));
  }
  // Size the batch index's arrays for a full batch now, on the
  // constructing thread, rather than growing them inside the first batch:
  // serve mode creates a counter per session, and that growth on the
  // worker threads fragments glibc's per-thread arenas, which shows as a
  // higher peak RSS. Only up to 64K-edge batches (at most ~2.5 MB of
  // address space, touched as batches fill it); larger ones, and the
  // parallel counter's shards, which never build an index, grow on demand.
  if (batch_size_ <= (std::size_t{1} << 16)) index_.Reserve(batch_size_);
}

void TriangleCounter::ProcessEdge(const Edge& e) {
  pending_.push_back(e);
  if (pending_.size() >= batch_size_) Flush();
}

void TriangleCounter::ProcessEdges(std::span<const Edge> edges) {
  // Bulk-append up to each batch boundary instead of pushing edge-by-edge;
  // pending_.size() never exceeds batch_size_, so the subtraction is safe
  // even when batch_size_ is the wrapper-owned SIZE_MAX sentinel.
  std::size_t offset = 0;
  while (offset < edges.size()) {
    const std::size_t take =
        std::min(edges.size() - offset, batch_size_ - pending_.size());
    pending_.insert(pending_.end(), edges.begin() + offset,
                    edges.begin() + offset + take);
    offset += take;
    if (pending_.size() >= batch_size_) Flush();
  }
}

void TriangleCounter::Flush() {
  if (pending_.empty()) return;
  // The Bloom filter is wanted exactly when ApplyBatch will probe it.
  index_.Build(pending_, pending_.size() * 8 <= cold_.size());
  ApplyBatch(pending_, index_);
  applied_edges_ += pending_.size();
  pending_.clear();
}

void TriangleCounter::AbsorbIndexedBatch(std::span<const Edge> batch,
                                         const BatchIndex& index) {
  TRISTREAM_CHECK(pending_.empty());
  if (batch.empty()) return;
  ApplyBatch(batch, index);
  applied_edges_ += batch.size();
}

void TriangleCounter::ApplyBatch(std::span<const Edge> batch,
                                 const BatchIndex& index) {
  const std::uint64_t m_before = applied_edges_;
  const std::uint64_t w = batch.size();
  const std::uint64_t r = cold_.size();
  // Chosen batch offsets travel through 32-bit lane outputs.
  TRISTREAM_CHECK(w <= 0xffffffffu);
  TRISTREAM_CHECK_EQ(index.size(), w);

  // ---------------------------------------------------------------------
  // Step 0 -- fused lane sweep (SIMD kernel). Every estimator draws its
  // Threefry block for this batch: word 0 decides the level-1 replacement
  // (keep with probability m/(m+w), Sec. 3.3's reservoir step) and picks
  // the replacement batch edge in the same draw; word 1 feeds the Step-2b
  // candidate draw. The same pass probes the index's Bloom filter of the
  // batch's vertices with each lane's r1 endpoints to pre-filter Step 2b:
  // a lane only has level-2 work when one of its endpoints gained
  // in-batch neighbors. No false negatives -- a filtered lane provably has
  // a = b = 0 (its β is zero and its endpoints are not batch vertices),
  // and replacing lanes are candidates unconditionally, so probing their
  // stale endpoints cannot drop them. A false positive just costs one
  // redundant index lookup. Lanes are independent streams keyed
  // (seed, lane), so the sweep vectorizes with no cross-lane state and
  // every ISA produces the same bits.
  // ---------------------------------------------------------------------
  // The filter only pays off when most lanes get rejected: for batches
  // large relative to r nearly every lane has an in-batch endpoint anyway,
  // and the (128 bits/edge) filter outgrows cache, so run filterless --
  // the kernel then marks every lane a candidate. The cutoff is a pure
  // function of (w, r), never of the ISA, so dispatch stays bit-identical.
  const bool use_filter = w * 8 <= r;
  TRISTREAM_CHECK(!use_filter || index.bloom() != nullptr);
  kernels::SweepArgs sweep_args;
  sweep_args.seed = options_.seed;
  sweep_args.batch_no = batch_no_;
  sweep_args.m_before = m_before;
  sweep_args.w = w;
  sweep_args.lanes = r;
  sweep_args.bloom = use_filter ? index.bloom() : nullptr;
  sweep_args.log2_bits = use_filter ? index.bloom_log2_bits() : 6;
  sweep_args.r1_uv = r1_uv_.data();
  sweep_args.replacers = replacers_.data();
  sweep_args.batch_idx = replace_batch_idx_.data();
  sweep_args.candidates = candidates_.data();
  sweep_args.draw2 = draw2_.data();
  const kernels::SweepCounts counts = kernels_->lane_sweep(sweep_args);
  const std::size_t num_replacers = counts.replacers;
  const std::size_t num_candidates = counts.candidates;

  // ---------------------------------------------------------------------
  // Step 1 -- scalar tail over the ~r·w/(m+w) replacing lanes: install
  // the chosen batch edge and reset the level-2 state.
  // ---------------------------------------------------------------------
  for (std::size_t k = 0; k < num_replacers; ++k) {
    const std::uint32_t est = replacers_[k];
    const std::uint32_t batch_idx = replace_batch_idx_[k];
    ColdState& st = cold_[est];
    r1_uv_[est] = PackUv(batch[batch_idx].u, batch[batch_idx].v);
    r1_pos_[est] = m_before + batch_idx;
    st.r2 = Edge();
    st.r2_pos = kInvalidEdgeIndex;
    c_[est] = 0;
    st.has_triangle = false;
  }

  // ---------------------------------------------------------------------
  // Step 2 -- per candidate lane, everything edgeIter's two sweeps used to
  // deliver, read from the index (Observation 3.6):
  //   * β(r1)(x), β(r1)(y): the EVENTA snapshot at r1's position, for
  //     lanes that replaced r1 in this batch (0 for all others);
  //   * a = deg_B(x) − β(r1)(x), b likewise: the in-batch candidates c+;
  //   * the level-2 draw over c− + a + b (Algorithm 3). An in-batch pick
  //     names an EVENTB (v, d), which the index resolves to position j;
  //   * the closing-edge check: a kept open wedge closes iff its closing
  //     edge is in the batch; a wedge whose r2 is batch[j] closes iff the
  //     closing edge occurs after j.
  // Lanes are independent, so each is finished in one visit.
  // ---------------------------------------------------------------------
  // Both lists from the fused sweep are ascending and every replacer is a
  // candidate, so a two-pointer merge finds each replacer's batch position
  // without lane-indexed loads.
  std::size_t kr = 0;
  for (std::size_t k = 0; k < num_candidates; ++k) {
    const std::uint32_t i = candidates_[k];
    if (k + 8 < num_candidates) {
      // The lane indices are data-dependent; hint the lane-indexed arrays a
      // few candidates ahead so their cache misses overlap this iteration.
      const std::uint32_t pi = candidates_[k + 8];
      __builtin_prefetch(&c_[pi]);
      __builtin_prefetch(&cold_[pi]);
      __builtin_prefetch(&r1_uv_[pi]);
    }
    if (k + 4 < num_candidates) {
      // Second stage: r1_uv_ of the lane four ahead was hinted four
      // iterations ago, so its endpoints can now hint the index probes.
      const std::uint64_t ahead = r1_uv_[candidates_[k + 4]];
      index.PrefetchEventsOf(UvLo(ahead));
      index.PrefetchEventsOf(UvHi(ahead));
    }
    BatchIndex::DegreesAfter beta;
    if (kr < num_replacers && replacers_[kr] == i) {
      beta = index.degrees_after(replace_batch_idx_[kr]);
      ++kr;
    }
    // Every lane replaces in the very first batch (pick < m_before is
    // impossible at m_before = 0), so r1 is always set by the time any
    // candidate reaches this loop; avoid the extra scattered r1_pos_ load.
    TRISTREAM_DCHECK(r1_pos_[i] != kInvalidEdgeIndex);
    const std::uint64_t uv = r1_uv_[i];
    const BatchIndex::VertexEvents ex = index.EventsOf(UvLo(uv));
    const BatchIndex::VertexEvents ey = index.EventsOf(UvHi(uv));
    const std::uint64_t a = ex.degree - beta.u;
    const std::uint64_t b = ey.degree - beta.v;
    if (a + b == 0) {
      // Bloom false positive: no in-batch neighbors after all.
      continue;
    }
    const Edge r1(UvLo(uv), UvHi(uv));
    ColdState& st = cold_[i];
    const std::uint64_t c_minus = c_[i];
    const std::uint64_t c_total = c_minus + a + b;
    c_[i] = c_total;
    // randInt(1, c_total) from the lane's second Threefry word; draw2_ is
    // compacted alongside candidates_, so index by list position.
    const std::uint64_t phi = 1 + MulHi64(draw2_[k], c_total);
    if (phi <= c_minus) {
      // Keep the current r2; its wedge may still be closed by a batch edge.
      if (st.r2_pos != kInvalidEdgeIndex && !st.has_triangle) {
        st.has_triangle =
            index.LastPosition(ClosingEdge(r1, st.r2).Key()) >= 0;
      }
      continue;
    }
    // Algorithm 3: the draw picks EVENTB (v, d), the d-th in-batch
    // neighbor event of one r1 endpoint; the index names its position.
    const bool at_x = phi <= c_minus + a;
    const BatchIndex::VertexEvents& ev = at_x ? ex : ey;
    const std::uint64_t d = at_x ? beta.u + (phi - c_minus)
                                 : beta.v + (phi - c_minus - a);
    TRISTREAM_CHECK(d >= 1 && d <= ev.degree);
    const std::uint32_t j = ev.positions[d - 1];
    st.r2 = batch[j];
    st.r2_pos = m_before + j;
    st.has_triangle =
        index.LastPosition(ClosingEdge(r1, st.r2).Key()) > std::int64_t{j};
  }
  ++batch_no_;
}

std::vector<double> TriangleCounter::PerEstimatorTriangleEstimates() {
  Flush();
  std::vector<double> values;
  values.reserve(cold_.size());
  const auto m = static_cast<double>(applied_edges_);
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    values.push_back(cold_[i].has_triangle ? static_cast<double>(c_[i]) * m
                                           : 0.0);
  }
  return values;
}

std::vector<double> TriangleCounter::PerEstimatorWedgeEstimates() {
  Flush();
  std::vector<double> values;
  values.reserve(c_.size());
  const auto m = static_cast<double>(applied_edges_);
  for (const std::uint64_t c : c_) {
    values.push_back(static_cast<double>(c) * m);
  }
  return values;
}

TriangleCounter::EstimatorPartials TriangleCounter::ComputePartials(
    std::uint64_t global_first, std::uint64_t global_count,
    std::uint32_t median_groups) {
  Flush();
  EstimatorPartials out;
  const std::size_t r = cold_.size();
  out.count = r;
  const auto m = static_cast<double>(applied_edges_);
  // Degenerate groupings collapse to the mean, matching MedianOfMeans.
  const bool grouped = median_groups > 1 && global_count > median_groups;
  const std::uint64_t n = global_count;
  const std::uint64_t groups = median_groups;
  // Global group of index i is the g with g*n/G <= i < (g+1)*n/G (the
  // contiguous nearly-equal partition of util::MedianOfMeans). Start at
  // the group containing global_first and walk forward with the index.
  std::uint64_t g = 0;
  std::uint64_t g_end = 0;
  if (grouped) {
    g = global_first * groups / n;  // floor => g*n/G <= global_first
    while ((g + 1) * n / groups <= global_first) ++g;
    g_end = (g + 1) * n / groups;
    out.first_group = static_cast<std::size_t>(g);
  }
  for (std::size_t i = 0; i < r; ++i) {
    const double wedge = static_cast<double>(c_[i]) * m;
    const double triangle = cold_[i].has_triangle ? wedge : 0.0;
    out.triangle_sum += triangle;
    out.wedge_sum += wedge;
    if (grouped) {
      const std::uint64_t global_index = global_first + i;
      while (global_index >= g_end) {
        ++g;
        g_end = (g + 1) * n / groups;
      }
      const std::size_t local = static_cast<std::size_t>(g) - out.first_group;
      if (local >= out.group_counts.size()) {
        out.triangle_group_sums.resize(local + 1, 0.0);
        out.wedge_group_sums.resize(local + 1, 0.0);
        out.group_counts.resize(local + 1, 0);
      }
      out.triangle_group_sums[local] += triangle;
      out.wedge_group_sums[local] += wedge;
      ++out.group_counts[local];
    }
  }
  return out;
}

double TriangleCounter::EstimateTriangles() {
  return AggregateEstimates(PerEstimatorTriangleEstimates(),
                            options_.aggregation, options_.median_groups);
}

double TriangleCounter::EstimateWedges() {
  return AggregateEstimates(PerEstimatorWedgeEstimates(),
                            options_.aggregation, options_.median_groups);
}

double TriangleCounter::EstimateTransitivity() {
  return TransitivityFrom(EstimateTriangles(), EstimateWedges());
}

const std::vector<EstimatorState>& TriangleCounter::estimators() {
  Flush();
  snapshot_.resize(cold_.size());
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    EstimatorState& st = snapshot_[i];
    st.r1 = Edge(UvLo(r1_uv_[i]), UvHi(r1_uv_[i]));
    st.r2 = cold_[i].r2;
    st.r1_pos = r1_pos_[i];
    st.r2_pos = cold_[i].r2_pos;
    st.c = c_[i];
    st.has_triangle = cold_[i].has_triangle;
  }
  return snapshot_;
}

void TriangleCounter::SaveState(ckpt::ByteSink& sink) const {
  sink.WriteU64(applied_edges_);
  // The counter-based RNG's entire position is the batch number -- one
  // word where the sequential generator needed its 256-bit state.
  sink.WriteU64(batch_no_);
  sink.WriteU64(cold_.size());
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    const ColdState& cs = cold_[i];
    sink.WriteU32(UvLo(r1_uv_[i]));
    sink.WriteU32(UvHi(r1_uv_[i]));
    sink.WriteU64(r1_pos_[i]);
    sink.WriteU64(c_[i]);
    sink.WriteU32(cs.r2.u);
    sink.WriteU32(cs.r2.v);
    sink.WriteU64(cs.r2_pos);
    // Bit 1 once flagged a level-2 draw awaiting its EVENTB; draws now
    // resolve inside the batch, so it is always clear between batches.
    sink.WriteU8(cs.has_triangle ? 1 : 0);
  }
  sink.WriteU64(pending_.size());
  for (const Edge& e : pending_) {
    sink.WriteU32(e.u);
    sink.WriteU32(e.v);
  }
}

Status TriangleCounter::RestoreState(ckpt::ByteSource& source) {
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&applied_edges_));
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&batch_no_));
  std::uint64_t count = 0;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&count));
  if (count != cold_.size()) {
    return Status::CorruptData(
        "estimator count mismatch: snapshot holds " + std::to_string(count) +
        " estimators, this counter is configured for " +
        std::to_string(cold_.size()));
  }
  // Overwrite the existing arrays in place: they are already sized r, and
  // for NUMA-bound shards the restore must not disturb their first-touch
  // page placement.
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    ColdState& cs = cold_[i];
    std::uint8_t flags = 0;
    std::uint32_t r1_u = 0;
    std::uint32_t r1_v = 0;
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&r1_u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&r1_v));
    r1_uv_[i] = PackUv(r1_u, r1_v);
    TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&r1_pos_[i]));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&c_[i]));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&cs.r2.u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&cs.r2.v));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&cs.r2_pos));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU8(&flags));
    if (flags > 1) {
      return Status::CorruptData("estimator " + std::to_string(i) +
                                 " carries unknown flag bits");
    }
    cs.has_triangle = flags != 0;
  }
  std::uint64_t pending_count = 0;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&pending_count));
  if (pending_count > source.remaining() / 8) {
    return Status::CorruptData(
        "pending-edge count " + std::to_string(pending_count) +
        " exceeds the bytes left in the snapshot");
  }
  pending_.clear();
  pending_.reserve(pending_count);
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    Edge e;
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&e.u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&e.v));
    pending_.push_back(e);
  }
  return Status::Ok();
}

TriangleCounter::MemoryStats TriangleCounter::ApproxMemoryUsage() const {
  MemoryStats stats;
  stats.per_estimator_bytes = sizeof(EstimatorState);
  stats.estimator_bytes =
      cold_.capacity() * sizeof(ColdState) +
      r1_pos_.capacity() * sizeof(EdgeIndex) +
      c_.capacity() * sizeof(std::uint64_t) +
      r1_uv_.capacity() * sizeof(std::uint64_t) +
      snapshot_.capacity() * sizeof(EstimatorState);
  stats.batch_scratch_bytes =
      pending_.capacity() * sizeof(Edge) + index_.MemoryBytes() +
      (replacers_.capacity() + replace_batch_idx_.capacity() +
       candidates_.capacity()) *
          sizeof(std::uint32_t) +
      draw2_.capacity() * sizeof(std::uint64_t);
  return stats;
}

}  // namespace core
}  // namespace tristream
