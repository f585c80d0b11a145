#include "stream/edge_source.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "graph/edge_list.h"
#include "stream/binary_io.h"
#include "stream/mmap_io.h"
#include "stream/text_io.h"
#include "util/timer.h"

namespace tristream {
namespace stream {
namespace {

/// Storage of OwningMemoryEdgeStream: a base class, so the events exist
/// before the MemoryEdgeStream that borrows them is built.
struct OwnedEvents {
  EdgeEventList events;
};

/// Memory stream that owns its events. Backs the text path of
/// OpenEdgeSource: the whole file is parsed up front, so batches are stable
/// zero-copy views and io_seconds reports the one-time load cost.
class OwningMemoryEdgeStream : private OwnedEvents, public MemoryEdgeStream {
 public:
  OwningMemoryEdgeStream(EdgeEventList events, double load_seconds)
      : OwnedEvents{std::move(events)},
        MemoryEdgeStream(OwnedEvents::events),
        load_seconds_(load_seconds) {}

  double io_seconds() const override { return load_seconds_; }

 private:
  double load_seconds_;
};

/// Reads the first 4 bytes of `path`. Returns false (with `*error` set)
/// when the file cannot be opened or read; a file shorter than 4 bytes
/// yields got < 4 and sniffs as text.
bool SniffMagic(const std::string& path, char magic[4], std::size_t* got,
                Status* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = Status::IoError("cannot open '" + path + "'");
    return false;
  }
  *got = std::fread(magic, 1, 4, f);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    *error = Status::IoError("cannot read '" + path + "'");
    return false;
  }
  return true;
}

}  // namespace

DedupEdgeStream::DedupEdgeStream(std::unique_ptr<EdgeStream> inner,
                                 std::size_t expected_edges)
    : inner_(std::move(inner)),
      filter_(expected_edges),
      expected_edges_(expected_edges) {}

bool DedupEdgeStream::FilterOneEventBatch(std::size_t max_edges,
                                          EventScratch* out) {
  // `out` is empty on entry (the pop path loops until an event survives).
  const EventBatchView raw =
      inner_->NextEventBatchView(max_edges, &event_scratch_);
  if (raw.empty()) return false;
  const bool carry_ops = !raw.all_inserts();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const EdgeOp op = raw.op(i);
    if (filter_.AdmitEvent(raw.edges[i], op)) {
      out->edges.push_back(raw.edges[i]);
      if (carry_ops) out->ops.push_back(op);
    }
  }
  return true;
}

EventBatchView DedupEdgeStream::NextEventBatchView(std::size_t max_edges,
                                                   EventScratch* /*scratch*/) {
  event_slot_ ^= 1;
  EventScratch& out = event_bufs_[event_slot_];
  out.edges.clear();
  out.ops.clear();
  while (out.edges.empty()) {
    if (!FilterOneEventBatch(max_edges, &out)) break;
  }
  delivered_ += out.edges.size();
  return EventBatchView{std::span<const Edge>(out.edges),
                        std::span<const EdgeOp>(out.ops)};
}

void DedupEdgeStream::Rewind() {
  inner_->Reset();
  filter_ = DedupFilter(expected_edges_);
  delivered_ = 0;
  for (EventScratch& buf : event_bufs_) {
    buf.edges.clear();
    buf.ops.clear();
  }
}

Result<std::unique_ptr<EdgeStream>> OpenEdgeSource(
    const std::string& path, const EdgeSourceOptions& options,
    EdgeSourceInfo* info) {
  char magic[4] = {0, 0, 0, 0};
  std::size_t got = 0;
  Status sniff_error = Status::Ok();
  if (!SniffMagic(path, magic, &got, &sniff_error)) return sniff_error;

  std::unique_ptr<EdgeStream> source;
  EdgeSourceInfo built;
  if (got == 4 && std::memcmp(magic, kTrisMagic, 4) == 0) {
    if (options.prefer_mmap) {
      auto mapped = MmapEdgeStream::Open(path);
      if (mapped.ok()) {
        built.reader = EdgeSourceInfo::Reader::kMmap;
        built.total_edges = (*mapped)->total_edges();
        built.turnstile = (*mapped)->turnstile();
        source = std::move(*mapped);
      } else if (mapped.status().code() == StatusCode::kCorruptData) {
        // A malformed file is malformed under any reader; only mapping
        // *infrastructure* failures fall back to FILE reads.
        return mapped.status();
      }
    }
    if (source == nullptr) {
      auto opened = BinaryFileEdgeStream::Open(path);
      if (!opened.ok()) return opened.status();
      built.reader = EdgeSourceInfo::Reader::kFile;
      built.total_edges = (*opened)->total_edges();
      built.turnstile = (*opened)->turnstile();
      source = std::move(*opened);
    }
  } else {
    WallTimer load_timer;
    auto parsed = ReadTextEvents(path);
    if (!parsed.ok()) return parsed.status();
    built.reader = EdgeSourceInfo::Reader::kText;
    built.total_edges = parsed->size();
    built.turnstile = parsed->has_deletes();
    source = std::make_unique<OwningMemoryEdgeStream>(std::move(*parsed),
                                                      load_timer.Seconds());
  }
  if (options.dedup) {
    // Size the filter for the source's real edge count: the default hint
    // would make the hash set rehash repeatedly on the producer thread.
    source = std::make_unique<DedupEdgeStream>(
        std::move(source),
        std::max<std::size_t>(static_cast<std::size_t>(built.total_edges),
                              1 << 12));
  }
  if (info != nullptr) *info = built;
  return source;
}

}  // namespace stream
}  // namespace tristream
