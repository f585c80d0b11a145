// One-door ingest: open any supported edge file as an EdgeStream.
//
// Every tool used to pick a reader by file extension, which breaks the
// moment a file is renamed and leaves each front end to reimplement
// dedup-on-ingest. OpenEdgeSource sniffs the *content* instead and returns
// the right stream behind the one interface the counters consume:
//
//   first 4 bytes == "TRIS"  ->  binary TRIS reader; MmapEdgeStream
//                                (zero-copy) by default, BinaryFileEdgeStream
//                                (buffered FILE reads) when prefer_mmap is
//                                off or the path cannot be mapped (not a
//                                regular file);
//   anything else            ->  SNAP-style text (text_io.h), parsed
//                                eagerly and served from memory with the
//                                load time reported as io_seconds().
//
// Setting `dedup` wraps the source in a DedupEdgeStream so duplicate edges
// and self-loops never reach the estimators -- the paper's algorithms
// assume a simple graph, and SNAP text files list both directions of each
// edge.

#ifndef TRISTREAM_STREAM_EDGE_SOURCE_H_
#define TRISTREAM_STREAM_EDGE_SOURCE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "stream/dedup.h"
#include "stream/edge_stream.h"
#include "util/status.h"

namespace tristream {
namespace stream {

/// How OpenEdgeSource builds the stream.
struct EdgeSourceOptions {
  /// Binary files: serve zero-copy batches from an mmap of the file.
  /// Falls back to buffered FILE reads when mapping is impossible.
  bool prefer_mmap = true;
  /// Wrap the source in a DedupEdgeStream (admit each undirected edge
  /// once, drop self-loops).
  bool dedup = false;
};

/// What OpenEdgeSource actually built (reported through the optional
/// `info` out-parameter -- prefer_mmap is a preference, not a guarantee).
struct EdgeSourceInfo {
  enum class Reader {
    kMmap,  // zero-copy spans into the mapping
    kFile,  // buffered FILE reads
    kText,  // parsed SNAP text served from memory
  };
  Reader reader = Reader::kText;
  /// Edge/event count promised by the source (header count for binary,
  /// parsed count for text) -- pre-dedup.
  std::uint64_t total_edges = 0;
  /// True when the source may emit delete events (TRIS v2, or a text file
  /// with "-1" op columns).
  bool turnstile = false;

  /// Short label for logs/CLI output.
  const char* reader_name() const {
    switch (reader) {
      case Reader::kMmap: return "mmap";
      case Reader::kFile: return "read";
      case Reader::kText: return "text";
    }
    return "?";
  }
};

/// Filtering adapter: pulls from `inner` and delivers only events admitted
/// by a DedupFilter (turnstile live-set semantics: inserts pass iff not
/// live, deletes pass iff live). Batches may come back shorter than
/// requested (the filter is applied per inner batch); an empty return
/// still means end of stream. Views are never stable (filtered events must
/// be compacted). An edge-only read fails at the first *admitted* delete:
/// a delete of an edge that is not live is dropped by the filter either
/// way and never changes the live graph.
class DedupEdgeStream : public EdgeStream {
 public:
  explicit DedupEdgeStream(std::unique_ptr<EdgeStream> inner,
                           std::size_t expected_edges = 1 << 12);

  /// Filters into internal storage; `scratch` is ignored. The returned
  /// view stays valid across one subsequent pull (alternating internal
  /// buffers) -- exactly the lifetime the pipelined consumer needs to
  /// fetch batch N+1 while batch N is being absorbed.
  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  bool turnstile() const override { return inner_->turnstile(); }
  std::uint64_t edges_delivered() const override { return delivered_; }
  double io_seconds() const override { return inner_->io_seconds(); }

  /// The wrapped filter (offered/admitted counts, memory).
  const DedupFilter& filter() const { return filter_; }

 protected:
  void Rewind() override;
  Status source_status() const override { return inner_->status(); }

 private:
  /// Pulls one inner event batch and compacts admitted events into `*out`
  /// (ops materialized only when the inner batch has them); returns false
  /// at inner end of stream.
  bool FilterOneEventBatch(std::size_t max_edges, EventScratch* out);

  std::unique_ptr<EdgeStream> inner_;
  DedupFilter filter_;
  std::size_t expected_edges_;
  std::uint64_t delivered_ = 0;
  EventScratch event_scratch_;
  /// Double-buffered output of NextEventBatchView (see its comment).
  std::array<EventScratch, 2> event_bufs_;
  int event_slot_ = 0;
};

/// Opens `path` as an EdgeStream, sniffing binary TRIS vs. text by magic
/// (see the table in the file comment). IoError when the file cannot be
/// opened/read, CorruptData when its contents do not parse. `info`, when
/// non-null, receives which reader was selected and the source's edge
/// count (used e.g. to size the dedup filter).
Result<std::unique_ptr<EdgeStream>> OpenEdgeSource(
    const std::string& path, const EdgeSourceOptions& options = {},
    EdgeSourceInfo* info = nullptr);

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_EDGE_SOURCE_H_
