#include "stream/mmap_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "stream/binary_io.h"

namespace tristream {
namespace stream {
namespace {

// The zero-copy reinterpretation below requires Edge to be exactly the
// on-disk pair layout.
static_assert(sizeof(Edge) == 2 * sizeof(VertexId),
              "Edge must be a packed (u32 u, u32 v) pair");
static_assert(std::is_trivially_copyable_v<Edge>,
              "Edge must be trivially copyable to alias mapped bytes");
static_assert(kTrisHeaderBytes % alignof(Edge) == 0,
              "payload offset must be Edge-aligned");
static_assert(sizeof(EdgeOp) == 1,
              "EdgeOp must be one byte to alias the v2 op section");

constexpr std::size_t kPageBytes = 4096;

}  // namespace

Result<std::unique_ptr<MmapEdgeStream>> MmapEdgeStream::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(ErrnoMessage("cannot open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError(ErrnoMessage("cannot stat", path));
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot mmap '" + path + "': not a regular file");
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  if (file_bytes < kTrisHeaderBytes) {
    ::close(fd);
    return Status::CorruptData("edge file '" + path + "': header too short");
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping pins the file contents; the descriptor is no longer needed.
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IoError(ErrnoMessage("cannot mmap", path));
  }
  const char* bytes = static_cast<const char*>(map);
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  std::memcpy(&version, bytes + 4, sizeof(version));
  std::memcpy(&count, bytes + 8, sizeof(count));
  // Per-event payload bytes: v1 is the pair alone, v2 adds the op byte in
  // the trailing section. Dividing the payload size (instead of
  // multiplying `count`) keeps the truncation check overflow-safe for
  // hostile headers, and covers tails that end mid-pair or inside the op
  // section alike.
  const std::size_t event_bytes =
      version == kTrisVersion2 ? kTrisEventBytes : sizeof(Edge);
  Status status = Status::Ok();
  if (std::memcmp(bytes, kTrisMagic, 4) != 0) {
    status = Status::CorruptData("edge file '" + path + "': bad magic");
  } else if (version != kTrisVersion && version != kTrisVersion2) {
    status = Status::CorruptData("edge file '" + path +
                                 "': unsupported version " +
                                 std::to_string(version));
  } else if ((file_bytes - kTrisHeaderBytes) / event_bytes < count) {
    status = Status::CorruptData(
        "edge file '" + path + "' truncated: header promises " +
        std::to_string(count) + " events, payload holds " +
        std::to_string((file_bytes - kTrisHeaderBytes) / event_bytes));
  }
  if (!status.ok()) {
    ::munmap(map, file_bytes);
    return status;
  }
  ::madvise(map, file_bytes, MADV_SEQUENTIAL);
  const Edge* payload =
      reinterpret_cast<const Edge*>(bytes + kTrisHeaderBytes);
  const EdgeOp* ops =
      version == kTrisVersion2
          ? reinterpret_cast<const EdgeOp*>(bytes + kTrisHeaderBytes +
                                            count * sizeof(Edge))
          : nullptr;
  return std::unique_ptr<MmapEdgeStream>(
      new MmapEdgeStream(map, file_bytes, version, payload, ops, count));
}

MmapEdgeStream::MmapEdgeStream(void* map, std::size_t map_bytes,
                               std::uint32_t version, const Edge* payload,
                               const EdgeOp* ops, std::uint64_t total_edges)
    : map_(map),
      map_bytes_(map_bytes),
      version_(version),
      payload_(payload),
      ops_(ops),
      total_edges_(total_edges) {
  io_timer_.Restart();
  io_timer_.Pause();
}

bool MmapEdgeStream::turnstile() const { return ops_ != nullptr; }

MmapEdgeStream::~MmapEdgeStream() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void MmapEdgeStream::Prefault(std::uint64_t end_edge) {
  const std::size_t end_byte = static_cast<std::size_t>(end_edge) *
                               sizeof(Edge);
  if (end_byte > prefaulted_bytes_) {
    const volatile char* bytes =
        reinterpret_cast<const volatile char*>(payload_);
    io_timer_.Resume();
    // One touch per page triggers the fault (and the kernel's sequential
    // readahead); the loop revisits nothing thanks to prefaulted_bytes_.
    for (std::size_t b = prefaulted_bytes_; b < end_byte; b += kPageBytes) {
      (void)bytes[b];
    }
    (void)bytes[end_byte - 1];
    io_timer_.Pause();
    prefaulted_bytes_ = end_byte;
  }
  // The op section lives past the whole pair section, so its pages need
  // their own watermark -- sequential readahead from the pair cursor never
  // reaches them.
  if (ops_ == nullptr) return;
  const std::size_t end_op_byte = static_cast<std::size_t>(end_edge);
  if (end_op_byte <= prefaulted_op_bytes_) return;
  const volatile char* op_bytes =
      reinterpret_cast<const volatile char*>(ops_);
  io_timer_.Resume();
  for (std::size_t b = prefaulted_op_bytes_; b < end_op_byte;
       b += kPageBytes) {
    (void)op_bytes[b];
  }
  (void)op_bytes[end_op_byte - 1];
  io_timer_.Pause();
  prefaulted_op_bytes_ = end_op_byte;
}

EventBatchView MmapEdgeStream::NextEventBatchView(std::size_t max_edges,
                                                  EventScratch* /*scratch*/) {
  const std::uint64_t remaining = total_edges_ - cursor_;
  const std::size_t take =
      static_cast<std::size_t>(std::min<std::uint64_t>(max_edges, remaining));
  if (take == 0) return {};
  Prefault(cursor_ + take);
  std::span<const EdgeOp> ops;
  if (ops_ != nullptr) {
    std::uint8_t bad = 0;
    if (!ValidateOpBytes(reinterpret_cast<const std::uint8_t*>(ops_ + cursor_),
                         take, &bad)) {
      if (status_.ok()) {
        status_ = Status::CorruptData(
            "edge file: op byte " + std::to_string(bad) +
            " is neither insert nor delete");
      }
      return {};
    }
    ops = std::span<const EdgeOp>(ops_ + cursor_, take);
  }
  EventBatchView view{std::span<const Edge>(payload_ + cursor_, take), ops};
  cursor_ += take;
  return view;
}

void MmapEdgeStream::Rewind() {
  cursor_ = 0;
  prefaulted_bytes_ = 0;
  prefaulted_op_bytes_ = 0;
  status_ = Status::Ok();
  io_timer_.Restart();
  io_timer_.Pause();
}

}  // namespace stream
}  // namespace tristream
