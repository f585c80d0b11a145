#include "core/batch_index.h"

#include <algorithm>
#include <bit>

#include "core/estimator_kernels.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tristream {
namespace core {
namespace {

// Bloom sizing for the Step-2b candidate filter: 64 bits per inserted
// vertex (a batch inserts at most 2w), power of two so the hash is a pure
// shift, floored at 512 bits and capped at 2^26 bits (8 MiB) so a
// pathological batch cannot own the cache -- past the cap the false-
// positive rate degrades gracefully and only costs redundant index
// lookups. The generous per-vertex budget matters: every false positive
// sends a lane through the scalar Step-2 lookups, so at r >> w lanes even
// a few percent of false positives would dominate the batch.
int BloomLog2Bits(std::uint64_t w) {
  const std::uint64_t target = std::max<std::uint64_t>(512, 128 * w);
  const int log2_bits = 64 - std::countl_zero(target - 1);
  return std::min(log2_bits, 26);
}

// How many edges ahead BuildPart prefetches its table slots.
constexpr std::size_t kPrefetchAhead = 16;

}  // namespace

std::uint32_t BatchIndex::OwnerOf(std::uint64_t key) const {
  // Every slot tests ownership of every endpoint and edge key, so the
  // hash is one multiply (Fibonacci hashing); the tables themselves hash
  // with U64Mixer, whose low bits are independent of these high ones.
  if (parts_count_ == 1) return 0;
  return static_cast<std::uint32_t>(
      MulHi64(key * 0x9E3779B97F4A7C15ULL, parts_count_));
}

std::size_t BatchIndex::ChunkBegin(std::uint32_t chunk) const {
  return static_cast<std::size_t>(std::uint64_t{chunk} * batch_.size() /
                                  parts_count_);
}

void BatchIndex::Reset(std::span<const Edge> batch, std::uint32_t parts,
                       bool with_bloom) {
  // Positions travel as 32-bit values.
  TRISTREAM_CHECK(batch.size() <= 0xffffffffu);
  TRISTREAM_CHECK(parts >= 1);
  batch_ = batch;
  parts_count_ = parts;
  if (parts_.size() != parts) parts_ = std::vector<Part>(parts);
  degrees_after_.resize(batch.size());
  with_bloom_ = with_bloom;
  if (with_bloom) {
    bloom_log2_bits_ = BloomLog2Bits(batch.size());
    // Each slot zeroes its own words in BuildPart.
    bloom_.resize(std::size_t{1} << (bloom_log2_bits_ - 6));
  }
}

void BatchIndex::BuildPart(std::uint32_t part) {
  Part& p = parts_[part];
  p.ids.Clear();
  p.last.Clear();
  p.offsets.assign(1, 0);
  p.after.clear();
  p.chunk_start.resize(parts_count_ + 1);
  // First scan: dense ids and degrees of owned vertices (counted in
  // offsets[id + 1]), the incidence stream in scan order, and the last
  // position of every owned edge key.
  const auto note = [&p](VertexId x) {
    std::uint32_t& id1 = p.ids[x];
    if (id1 == 0) {
      p.offsets.push_back(0);
      id1 = static_cast<std::uint32_t>(p.offsets.size() - 1);
    }
    ++p.offsets[id1];
    p.after.push_back(id1 - 1);
  };
  for (std::uint32_t chunk = 0; chunk < parts_count_; ++chunk) {
    p.chunk_start[chunk] = p.after.size();
    const std::size_t end = ChunkBegin(chunk + 1);
    for (std::size_t j = ChunkBegin(chunk); j < end; ++j) {
      if (j + kPrefetchAhead < batch_.size()) {
        // The table probes below miss cache on every edge of a large
        // batch; issuing them a few edges early overlaps the misses.
        const Edge& f = batch_[j + kPrefetchAhead];
        if (OwnerOf(f.u) == part) p.ids.Prefetch(f.u);
        if (OwnerOf(f.v) == part) p.ids.Prefetch(f.v);
        if (OwnerOf(f.Key()) == part) p.last.Prefetch(f.Key());
      }
      const Edge& e = batch_[j];
      if (OwnerOf(e.u) == part) note(e.u);
      if (OwnerOf(e.v) == part) note(e.v);
      const std::uint64_t key = e.Key();
      if (OwnerOf(key) == part) p.last[key] = static_cast<std::uint32_t>(j);
    }
  }
  p.chunk_start[parts_count_] = p.after.size();

  // Degrees -> CSR offsets, then a second scan places every owned
  // incidence. Positions arrive in ascending order, so each vertex's run
  // lists its EVENTBs by degree; the slot a position lands in also gives
  // the degree right after it, which replaces the id in the stream.
  for (std::size_t id = 1; id < p.offsets.size(); ++id) {
    p.offsets[id] += p.offsets[id - 1];
  }
  p.cursor.assign(p.offsets.begin(), p.offsets.end() - 1);
  p.positions.resize(p.offsets.back());
  std::size_t t = 0;
  const auto place = [&p, &t](std::size_t j) {
    const std::uint32_t id = p.after[t];
    const std::uint32_t slot = p.cursor[id]++;
    p.positions[slot] = static_cast<std::uint32_t>(j);
    p.after[t++] = slot + 1 - p.offsets[id];
  };
  for (std::size_t j = 0; j < batch_.size(); ++j) {
    const Edge& e = batch_[j];
    if (OwnerOf(e.u) == part) place(j);
    if (OwnerOf(e.v) == part) place(j);
  }
  TRISTREAM_DCHECK(t == p.after.size());

  if (with_bloom_) BuildBloomWords(part);
}

void BatchIndex::BuildBloomWords(std::uint32_t part) {
  const std::size_t words = bloom_.size();
  const std::size_t lo = words * part / parts_count_;
  const std::size_t hi = words * (part + 1) / parts_count_;
  std::fill(bloom_.begin() + static_cast<std::ptrdiff_t>(lo),
            bloom_.begin() + static_cast<std::ptrdiff_t>(hi), 0);
  const auto set = [&](VertexId x) {
    const std::uint64_t bit = kernels::BloomBitIndex(x, bloom_log2_bits_);
    const std::size_t word = bit >> 6;
    if (word >= lo && word < hi) bloom_[word] |= std::uint64_t{1} << (bit & 63);
  };
  for (const Edge& e : batch_) {
    set(e.u);
    set(e.v);
  }
}

void BatchIndex::FinishPart(std::uint32_t part) {
  // Each owner's incidence stream is in scan order, so the positions of
  // this chunk read every owner's stream sequentially from where that
  // owner's scan entered the chunk.
  std::vector<std::size_t>& cursor = parts_[part].read_cursor;
  cursor.resize(parts_count_);
  for (std::uint32_t owner = 0; owner < parts_count_; ++owner) {
    cursor[owner] = parts_[owner].chunk_start[part];
  }
  const std::size_t end = ChunkBegin(part + 1);
  for (std::size_t j = ChunkBegin(part); j < end; ++j) {
    const Edge& e = batch_[j];
    const std::uint32_t ou = OwnerOf(e.u);
    DegreesAfter d;
    d.u = parts_[ou].after[cursor[ou]++];
    const std::uint32_t ov = OwnerOf(e.v);
    d.v = parts_[ov].after[cursor[ov]++];
    // A self-loop's endpoints both read the degree after its second
    // increment, as edgeIter's EVENTA does.
    if (e.u == e.v) d.u = d.v;
    degrees_after_[j] = d;
  }
}

void BatchIndex::Reserve(std::size_t w) {
  if (parts_.size() != 1) parts_ = std::vector<Part>(1);
  Part& p = parts_[0];
  // Worst cases of a w-edge batch: 2w incidences over at most 2w distinct
  // vertices. The hash tables still grow on demand: reserving them means
  // zero-filling them now.
  p.offsets.reserve(2 * w + 1);
  p.cursor.reserve(2 * w);
  p.positions.reserve(2 * w);
  p.after.reserve(2 * w);
  degrees_after_.reserve(w);
}

void BatchIndex::Build(std::span<const Edge> batch, bool with_bloom) {
  Reset(batch, 1, with_bloom);
  BuildPart(0);
  FinishPart(0);
}

BatchIndex::VertexEvents BatchIndex::EventsOf(VertexId v) const {
  const Part& p = parts_[OwnerOf(v)];
  const std::uint32_t* id1 = p.ids.Find(v);
  if (id1 == nullptr) return {};
  const std::uint32_t begin = p.offsets[*id1 - 1];
  return {p.positions.data() + begin, p.offsets[*id1] - begin};
}

void BatchIndex::PrefetchEventsOf(VertexId v) const {
  parts_[OwnerOf(v)].ids.Prefetch(v);
}

std::int64_t BatchIndex::LastPosition(std::uint64_t edge_key) const {
  const std::uint32_t* pos = parts_[OwnerOf(edge_key)].last.Find(edge_key);
  return pos != nullptr ? std::int64_t{*pos} : -1;
}

std::size_t BatchIndex::MemoryBytes() const {
  std::size_t bytes = degrees_after_.capacity() * sizeof(DegreesAfter) +
                      bloom_.capacity() * sizeof(std::uint64_t);
  for (const Part& p : parts_) {
    bytes += p.ids.MemoryBytes() + p.last.MemoryBytes() +
             (p.offsets.capacity() + p.cursor.capacity() +
              p.positions.capacity() + p.after.capacity()) *
                 sizeof(std::uint32_t) +
             (p.chunk_start.capacity() + p.read_cursor.capacity()) *
                 sizeof(std::size_t);
  }
  return bytes;
}

}  // namespace core
}  // namespace tristream
