#include "stream/socket_stream.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "stream/binary_io.h"

namespace tristream {
namespace stream {
namespace {

/// "<what>: <strerror(errno)>" for socket-level failures (no path here).
std::string SocketErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Full-write loop; MSG_NOSIGNAL keeps a dead peer an IoError instead of a
/// SIGPIPE. Falls back to write(2) for non-socket fds (pipes in tests).
Status WriteAll(int fd, const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < bytes) {
    ssize_t n = ::send(fd, p + sent, bytes - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, p + sent, bytes - sent);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(SocketErrnoMessage("send on edge socket"));
    }
    if (n == 0) {
      return Status::IoError("edge socket closed mid-send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<SocketEdgeStream>> SocketEdgeStream::FromFd(int fd) {
  if (fd < 0) {
    return Status::InvalidArgument("SocketEdgeStream needs a valid fd");
  }
  return std::unique_ptr<SocketEdgeStream>(new SocketEdgeStream(fd));
}

SocketEdgeStream::~SocketEdgeStream() {
  if (fd_ >= 0) ::close(fd_);
}

SocketEdgeStream::ReadResult SocketEdgeStream::ReadExact(void* out,
                                                         std::size_t bytes) {
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  io_timer_.Resume();
  while (got < bytes) {
    if (idle_timeout_millis_ > 0) {
      // Idle timeout: wait for readability before committing to a blocking
      // read. Every arriving byte restarts the clock (the poll runs per
      // read call), so only a *silent* peer -- half-open connection,
      // stalled producer -- trips it, never a slow one.
      pollfd pfd{fd_, POLLIN, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, idle_timeout_millis_);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) {
        io_timer_.Pause();
        status_ = Status::IoError(SocketErrnoMessage("poll on edge socket"));
        return ReadResult::kFailed;
      }
      if (rc == 0) {
        io_timer_.Pause();
        status_ = Status::DeadlineExceeded(
            "edge socket idle for " + std::to_string(idle_timeout_millis_) +
            " ms (receive idle timeout)");
        return ReadResult::kFailed;
      }
    }
    const ssize_t n = ::read(fd_, p + got, bytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_timer_.Pause();
      status_ = Status::IoError(SocketErrnoMessage("read on edge socket"));
      return ReadResult::kFailed;
    }
    if (n == 0) {
      io_timer_.Pause();
      if (got == 0) return ReadResult::kCleanEof;
      // The peer vanished with a frame half-sent: the edges delivered so
      // far are a prefix of what the producer promised.
      status_ = Status::CorruptData("edge socket closed mid-frame");
      return ReadResult::kFailed;
    }
    got += static_cast<std::size_t>(n);
  }
  io_timer_.Pause();
  return ReadResult::kOk;
}

std::size_t SocketEdgeStream::FillEvents(std::size_t max_edges,
                                         std::vector<Edge>* edges,
                                         std::vector<EdgeOp>* ops) {
  edges->clear();
  ops->clear();
  if (eof_ || !status_.ok()) return 0;
  // Fill the batch across frame boundaries: batch boundaries then depend
  // only on the event sequence and max_edges, never on how the producer
  // chunked its sends -- which is what keeps socket ingest bit-identical
  // to file and memory ingest for a fixed (seed, threads).
  edges->resize(max_edges);
  ops->resize(max_edges);
  std::size_t filled = 0;
  bool any_delete = false;
  while (filled < max_edges) {
    if (frame_remaining_ == 0) {
      char header[kTrisHeaderBytes];
      const ReadResult r = ReadExact(header, sizeof(header));
      if (r == ReadResult::kCleanEof) {
        // Orderly shutdown at a frame boundary: genuine end of stream.
        eof_ = true;
        break;
      }
      if (r == ReadResult::kFailed) {
        // A peer that vanished partway through its very first header never
        // spoke the protocol at all: that is transport flakiness
        // (retryable IoError), not a framing violation. Timeouts and read
        // errors keep their own codes.
        if (!handshaken_ && status_.code() == StatusCode::kCorruptData) {
          status_ = Status::IoError(
              "edge socket peer closed before handshake (no complete frame "
              "header received)");
        }
        break;
      }
      handshaken_ = true;
      if (std::memcmp(header, kTrisMagic, 4) != 0) {
        status_ = Status::CorruptData("edge socket frame has bad magic");
        break;
      }
      std::uint32_t version = 0;
      std::memcpy(&version, header + 4, sizeof(version));
      if (version != kTrisVersion && version != kTrisVersion2) {
        status_ = Status::CorruptData("edge socket frame has unsupported "
                                      "version " + std::to_string(version));
        break;
      }
      frame_version_ = version;
      if (version == kTrisVersion2) saw_v2_ = true;
      std::memcpy(&frame_remaining_, header + 8, sizeof(frame_remaining_));
      continue;  // an n == 0 keep-alive loops straight to the next header
    }
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_edges - filled, frame_remaining_));
    if (frame_version_ == kTrisVersion) {
      // Edge is two packed u32s -- the v1 frame payload layout -- so the
      // pairs land directly in the batch vector with no staging buffer.
      static_assert(sizeof(Edge) == 8, "frame payload layout");
      const ReadResult r = ReadExact(edges->data() + filled,
                                     take * sizeof(Edge));
      if (r != ReadResult::kOk) {
        // EOF between the pops of a frame is still mid-frame: the sender
        // promised frame_remaining_ more edges. ReadExact only knows byte
        // offsets, so the zero-offset case is classified here.
        if (r == ReadResult::kCleanEof) {
          status_ = Status::CorruptData("edge socket closed mid-frame");
        }
        break;
      }
      std::fill(ops->begin() + static_cast<std::ptrdiff_t>(filled),
                ops->begin() + static_cast<std::ptrdiff_t>(filled + take),
                EdgeOp::kInsert);
      frame_remaining_ -= take;
      filled += take;
      continue;
    }
    // v2: interleaved 9-byte (u32 u, u32 v, u8 op) records through a
    // staging buffer.
    record_buf_.resize(take * kTrisEventBytes);
    const ReadResult r = ReadExact(record_buf_.data(), record_buf_.size());
    if (r != ReadResult::kOk) {
      if (r == ReadResult::kCleanEof) {
        status_ = Status::CorruptData("edge socket closed mid-frame");
      }
      break;
    }
    frame_remaining_ -= take;
    bool failed = false;
    for (std::size_t i = 0; i < take; ++i) {
      const std::uint8_t* rec = record_buf_.data() + i * kTrisEventBytes;
      const std::uint8_t op_byte = rec[8];
      if (op_byte > static_cast<std::uint8_t>(EdgeOp::kDelete)) {
        status_ = Status::CorruptData(
            "edge socket frame has op byte " + std::to_string(op_byte) +
            " (neither insert nor delete)");
        failed = true;
        break;
      }
      const EdgeOp op = static_cast<EdgeOp>(op_byte);
      std::memcpy(edges->data() + filled, rec, sizeof(Edge));
      (*ops)[filled] = op;
      any_delete = any_delete || op == EdgeOp::kDelete;
      ++filled;
    }
    if (failed) break;
  }
  edges->resize(filled);
  ops->resize(filled);
  // All-insert batches report an empty ops span so downstream keeps the
  // insert-only fast path.
  if (!any_delete) ops->clear();
  delivered_ += filled;
  return filled;
}

EventBatchView SocketEdgeStream::NextEventBatchView(std::size_t max_edges,
                                                    EventScratch* scratch) {
  FillEvents(max_edges, &scratch->edges, &scratch->ops);
  return EventBatchView{std::span<const Edge>(scratch->edges),
                        std::span<const EdgeOp>(scratch->ops)};
}

Result<TcpListener> ListenOnLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(SocketErrnoMessage("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = Status::IoError(SocketErrnoMessage("bind"));
    ::close(fd);
    return s;
  }
  // SOMAXCONN, not a small constant: serve mode legitimately sees dozens
  // of simultaneous connects, and a short backlog turns them into resets.
  if (::listen(fd, SOMAXCONN) < 0) {
    const Status s = Status::IoError(SocketErrnoMessage("listen"));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status s = Status::IoError(SocketErrnoMessage("getsockname"));
    ::close(fd);
    return s;
  }
  TcpListener listener;
  listener.fd = fd;
  listener.port = ntohs(addr.sin_port);
  return listener;
}

Result<int> AcceptOne(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    return Status::IoError(SocketErrnoMessage("accept"));
  }
}

Result<int> ConnectToLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(SocketErrnoMessage("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    const Status s = Status::IoError(SocketErrnoMessage("connect"));
    ::close(fd);
    return s;
  }
  // Disable Nagle on both ends (see AcceptOne): a 16-byte TRIQ header
  // trailing a burst of edge frames must not sit out a delayed-ACK
  // window -- query latency is an acceptance criterion of serve mode.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WriteEdgeFrame(int fd, std::span<const Edge> edges) {
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion, sizeof(kTrisVersion));
  const std::uint64_t count = edges.size();
  std::memcpy(header + 8, &count, sizeof(count));
  TRISTREAM_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  static_assert(sizeof(Edge) == 8, "frame payload layout");
  return WriteAll(fd, edges.data(), edges.size() * sizeof(Edge));
}

Status WriteEventFrame(int fd, std::span<const Edge> edges,
                       std::span<const EdgeOp> ops) {
  if (!ops.empty() && ops.size() != edges.size()) {
    return Status::InvalidArgument(
        "event frame has " + std::to_string(edges.size()) + " edges but " +
        std::to_string(ops.size()) + " ops");
  }
  // Insert-only spans go out as plain v1 so v1-only peers keep working.
  const bool has_delete =
      std::find(ops.begin(), ops.end(), EdgeOp::kDelete) != ops.end();
  if (!has_delete) return WriteEdgeFrame(fd, edges);
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion2, sizeof(kTrisVersion2));
  const std::uint64_t count = edges.size();
  std::memcpy(header + 8, &count, sizeof(count));
  TRISTREAM_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  std::vector<std::uint8_t> payload(edges.size() * kTrisEventBytes);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    std::uint8_t* rec = payload.data() + i * kTrisEventBytes;
    std::memcpy(rec, &edges[i], sizeof(Edge));
    rec[8] = static_cast<std::uint8_t>(ops[i]);
  }
  return WriteAll(fd, payload.data(), payload.size());
}

}  // namespace stream
}  // namespace tristream
