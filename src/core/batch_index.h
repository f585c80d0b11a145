// The per-batch edgeIter index every estimator of a bulk batch reads.
//
// Algorithm 2 of the paper (edgeIter) sweeps a batch B keeping in-batch
// degrees and emits two event kinds:
//   EVENTA(j)        -- after edge j, the degree table is deg;
//   EVENTB(j, v, d)  -- after edge j, vertex v's degree became d.
// By Observation 3.6 these events depend only on B, never on an estimator,
// so they can be materialised once per batch and then answered by random
// access. BatchIndex is that materialisation:
//
//   * degrees_after(j) -- the EVENTA/β snapshot: the in-batch degrees of
//     batch[j]'s endpoints right after edge j. A self-loop increments its
//     vertex twice and both endpoints read the value after both
//     increments.
//   * EventsOf(v)      -- deg_B(v) plus the EVENTB resolution: positions[d-1]
//     is the batch position at which v reached in-batch degree d (CSR over
//     dense per-batch vertex ids).
//   * LastPosition(k)  -- the last batch position of edge key k, or -1: a
//     wedge waiting for closing key k closes inside the batch iff the key
//     occurs after the wedge's r2.
//   * bloom()          -- the batch-vertex Bloom bits the lane sweep probes
//     (built only when asked for; see TriangleCounter::ApplyBatch).
//
// Building it costs O(w); every estimator then pays O(1) expected per
// lookup, so a batch costs O(w) once plus O(r) over all estimators
// (Theorem 3.5), however many shards share the estimators.
//
// Parallel build, partitioned by owner. Slot k of P owns the vertices and
// edge keys whose hash maps to k, and the k-th range of Bloom words. Every
// slot scans the whole batch but writes only what it owns, so the writes
// are disjoint and the result is a pure function of the batch, whatever P
// is. The protocol, from one controller thread and P workers:
//
//   controller:  Reset(batch, P, with_bloom)          (no worker running)
//   worker k:    BuildPart(k)   -- vertices, CSR, edge keys, Bloom words
//                ... all P workers meet at a barrier ...
//                FinishPart(k)  -- degrees_after for positions of chunk k
//                ... all P workers meet at a barrier ...
//                read-only from here on, by any thread
//
// Build() runs the same three steps serially at P = 1.

#ifndef TRISTREAM_CORE_BATCH_INDEX_H_
#define TRISTREAM_CORE_BATCH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/flat_hash_map.h"
#include "util/types.h"

namespace tristream {
namespace core {

class BatchIndex {
 public:
  /// In-batch degrees of an edge's endpoints right after the edge.
  struct DegreesAfter {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
  };

  /// A vertex's EVENTBs in the batch: positions[d - 1] is where it
  /// reached in-batch degree d, for d in [1, degree]. A vertex outside the
  /// batch has degree 0 and no positions.
  struct VertexEvents {
    const std::uint32_t* positions = nullptr;
    std::uint32_t degree = 0;
  };

  /// Starts a build of `batch` split over `parts` slots. The batch must
  /// stay valid and unchanged while the index is built and read.
  void Reset(std::span<const Edge> batch, std::uint32_t parts,
             bool with_bloom);

  /// Phase 1 of slot `part`: indexes the vertices and edge keys it owns
  /// and sets its range of Bloom words.
  void BuildPart(std::uint32_t part);

  /// Phase 2 of slot `part`, after every slot's BuildPart: fills
  /// degrees_after for the positions of the part-th chunk of the batch.
  void FinishPart(std::uint32_t part);

  /// Sizes the arrays of a one-slot index for batches of up to `w`
  /// edges, so building one never reallocates them.
  void Reserve(std::size_t w);

  /// Serial build (Reset, then both phases at one slot).
  void Build(std::span<const Edge> batch, bool with_bloom);

  /// Edges in the indexed batch.
  std::size_t size() const { return batch_.size(); }

  DegreesAfter degrees_after(std::size_t j) const { return degrees_after_[j]; }

  VertexEvents EventsOf(VertexId v) const;

  /// Hints the table slot EventsOf(v) will probe into cache.
  void PrefetchEventsOf(VertexId v) const;

  /// Last batch position of the edge with this key, or -1 if absent.
  std::int64_t LastPosition(std::uint64_t edge_key) const;

  /// Bloom bits of the batch's vertices (kernels::BloomBitIndex), or
  /// nullptr when the build was not asked for them.
  const std::uint64_t* bloom() const {
    return with_bloom_ ? bloom_.data() : nullptr;
  }
  int bloom_log2_bits() const { return bloom_log2_bits_; }

  /// Bytes of heap memory held (capacity, which persists across batches).
  std::size_t MemoryBytes() const;

 private:
  /// What slot k owns. Aligned so slots never share a cache line.
  struct alignas(64) Part {
    FlatHashMap<std::uint32_t> ids{16};   // owned vertex -> local id + 1
    std::vector<std::uint32_t> offsets;   // CSR: id -> [offsets[id], [id+1])
    std::vector<std::uint32_t> cursor;    // CSR fill cursors
    std::vector<std::uint32_t> positions;  // CSR payload (batch positions)
    /// One entry per owned (position, endpoint) in scan order: the local
    /// id during BuildPart, then the endpoint's degree right after it.
    std::vector<std::uint32_t> after;
    /// after.size() at the start of each position chunk (parts + 1).
    std::vector<std::size_t> chunk_start;
    std::vector<std::size_t> read_cursor;  // FinishPart scratch (parts)
    FlatHashMap<std::uint32_t> last{16};  // owned edge key -> last position
  };

  std::uint32_t OwnerOf(std::uint64_t key) const;
  std::size_t ChunkBegin(std::uint32_t chunk) const;
  void BuildBloomWords(std::uint32_t part);

  std::span<const Edge> batch_;
  std::uint32_t parts_count_ = 1;
  std::vector<Part> parts_;
  std::vector<DegreesAfter> degrees_after_;
  bool with_bloom_ = false;
  int bloom_log2_bits_ = 6;
  std::vector<std::uint64_t> bloom_;
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_BATCH_INDEX_H_
