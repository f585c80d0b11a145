// Live network ingest: TRIS-framed edge chunks over a stream socket.
//
// The missing half of the live-monitoring workload: a remote producer
// (collector, packet tap, another tristream process) sends edges over TCP
// and the receiver consumes them through the same EdgeStream interface the
// counters already speak. The wire format reuses the TRIS on-disk layout,
// chunked so the stream can be unbounded:
//
//   v1 frame := "TRIS" magic (4) | version u32 = 1 | edge count n u64
//               | n * 8 bytes of (u32 u, u32 v) endpoint pairs
//   v2 frame := "TRIS" magic (4) | version u32 = 2 | event count n u64
//               | n * 9 bytes of (u32 u, u32 v, u8 op) records
//
// i.e. every v1 frame looks exactly like a little TRIS file (binary_io.h),
// in native little-endian byte order, and a connection carries any number
// of frames back to back -- v1 and v2 may interleave freely, the version
// field of each frame header decides. Unlike the on-disk v2 layout (SoA
// sections), socket records interleave the op byte so a frame can be
// parsed incrementally with bounded memory -- a socket cannot seek ahead
// to an op section. An n == 0 frame is a keep-alive delivering nothing.
// Orderly shutdown *between* frames is clean end of stream; everything
// else is sticky-status() failure, never a silent prefix:
//
//   EOF mid-frame (truncated header or payload)  -> CorruptData
//   bad magic / unsupported version / bad op     -> CorruptData
//   recv(2) error                                -> IoError
//
// (An edge-only read of a batch holding a delete is refused by
// EdgeStream's shims with InvalidArgument, as for every source.)
//
// A pull is batch-granular and fills across frame boundaries: a huge
// frame never forces a huge batch (pops are capped at max_edges) and
// ragged frames never shrink one (a short batch happens only at end of
// stream or failure). Batch boundaries are therefore a pure function of
// the edge sequence and max_edges -- never of how the producer chunked
// its sends -- which is what keeps socket ingest bit-identical to file
// and memory ingest for a fixed (seed, threads); max_edges doubles as
// the consumer's latency bound. Read time accumulates on the
// io_seconds() stopwatch like the file readers' read time. Live sockets
// cannot replay; Reset() CHECK-fails (EdgeStream's default Rewind()).
//
// SocketEdgeStream wraps any connected stream-socket fd (TCP, socketpair,
// UNIX domain), so tests drive it over socketpair(2) and the CLI's `live`
// command over a loopback TCP accept. The small helpers below cover the
// listen/connect/frame-writing boilerplate for both.

#ifndef TRISTREAM_STREAM_SOCKET_STREAM_H_
#define TRISTREAM_STREAM_SOCKET_STREAM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "stream/edge_stream.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/types.h"

namespace tristream {
namespace stream {

/// Consumes TRIS-framed edges from a connected stream-socket fd.
class SocketEdgeStream : public EdgeStream {
 public:
  /// Wraps `fd` (which must be a connected stream socket or pipe-like fd);
  /// takes ownership and closes it on destruction. InvalidArgument when fd
  /// is negative.
  static Result<std::unique_ptr<SocketEdgeStream>> FromFd(int fd);

  ~SocketEdgeStream() override;
  SocketEdgeStream(const SocketEdgeStream&) = delete;
  SocketEdgeStream& operator=(const SocketEdgeStream&) = delete;

  /// Fills across frames (v1 frames decode as all-inserts) into
  /// `*scratch` and returns a view of it; the ops span is empty when the
  /// batch is all-inserts.
  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  /// True once any v2 frame has been received.
  bool turnstile() const override { return saw_v2_; }
  std::uint64_t edges_delivered() const override { return delivered_; }
  /// Seconds spent blocked in recv(2).
  double io_seconds() const override { return io_timer_.Seconds(); }

  /// Edges the sender promised in the current frame but not yet delivered.
  std::uint64_t frame_remaining() const { return frame_remaining_; }

  /// Receive idle timeout (off by default). When set, a read that sees no
  /// bytes for `millis` surfaces as a sticky kDeadlineExceeded status
  /// instead of blocking forever -- so a silently stalled or half-open
  /// peer cannot hold a consumer (or a serve session slot) indefinitely.
  /// Idle, not total: any received byte restarts the clock. millis <= 0
  /// turns the timeout off.
  void set_receive_idle_timeout_millis(int millis) {
    idle_timeout_millis_ = millis;
  }
  int receive_idle_timeout_millis() const { return idle_timeout_millis_; }

 protected:
  /// Sticky: IoError on a socket read failure, CorruptData on a malformed
  /// or truncated frame, DeadlineExceeded when the receive idle timeout
  /// fires; OK after orderly shutdown at a frame boundary. One deliberate
  /// carve-out: a peer that disconnects before completing its *first*
  /// frame header reports IoError ("peer closed before handshake"), not
  /// CorruptData -- nothing was ever parsed, so the failure is transport
  /// flakiness (retryable), not a framing bug (which is not).
  Status source_status() const override { return status_; }

 private:
  explicit SocketEdgeStream(int fd) : fd_(fd) { io_timer_.Pause(); }

  /// Outcome of trying to read an exact byte count off the socket.
  enum class ReadResult { kOk, kCleanEof, kFailed };

  /// Reads exactly `bytes` into `out`, timing the recv calls. kCleanEof
  /// only when EOF lands before the first byte; a partial read sets
  /// status_ (CorruptData) and returns kFailed, as does a read error
  /// (IoError).
  ReadResult ReadExact(void* out, std::size_t bytes);

  /// Fills up to `max_edges` events into `edges`/`ops` across frames (ops
  /// cleared when the whole batch is inserts). Returns events delivered.
  std::size_t FillEvents(std::size_t max_edges, std::vector<Edge>* edges,
                         std::vector<EdgeOp>* ops);

  int fd_;
  int idle_timeout_millis_ = 0;
  std::uint64_t frame_remaining_ = 0;
  std::uint32_t frame_version_ = 0;  // of the frame being drained
  std::uint64_t delivered_ = 0;
  bool eof_ = false;
  bool saw_v2_ = false;
  /// True once a complete frame header has been received; gates the
  /// pre-handshake IoError reclassification (see source_status()).
  bool handshaken_ = false;
  Status status_;
  /// Staging for v2 record payloads (9-byte records cannot land directly
  /// in an Edge vector the way v1 pairs do).
  std::vector<std::uint8_t> record_buf_;
  mutable WallTimer io_timer_;
};

/// A bound, listening TCP socket (loopback only).
struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;  // actual port (useful when asked for port 0)
};

/// Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port,
/// reported back in the result). The caller owns the returned fd.
Result<TcpListener> ListenOnLoopback(std::uint16_t port);

/// Blocks until one connection arrives on `listen_fd`; returns the
/// connected fd (caller owns it; the listener stays open).
Result<int> AcceptOne(int listen_fd);

/// Connects to 127.0.0.1:`port`; returns the connected fd (caller owns).
Result<int> ConnectToLoopback(std::uint16_t port);

/// Producer-side framing: sends `edges` as one TRIS v1 frame (header +
/// payload) with a full-write loop. An empty span sends a keep-alive
/// frame. IoError when the peer is gone or the write fails.
Status WriteEdgeFrame(int fd, std::span<const Edge> edges);

/// Event framing: insert-only spans (empty or all-insert `ops`) go out as
/// plain v1 frames -- byte-identical to WriteEdgeFrame, so v1-only peers
/// keep working; anything with a delete becomes one v2 frame of
/// interleaved 9-byte records. `ops` is either empty or parallel to
/// `edges`.
Status WriteEventFrame(int fd, std::span<const Edge> edges,
                       std::span<const EdgeOp> ops);

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_SOCKET_STREAM_H_
