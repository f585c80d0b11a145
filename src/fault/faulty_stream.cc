#include "fault/faulty_stream.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

namespace tristream {
namespace fault {

namespace {

Status InjectedStatus(const FaultPoint& point) {
  std::string msg = "injected ";
  msg += FaultKindName(point.kind);
  msg += " after ";
  msg += std::to_string(point.at);
  msg += " events";
  if (point.kind == FaultKind::kCorruptData ||
      point.kind == FaultKind::kTornRename) {
    return Status::CorruptData(std::move(msg));
  }
  return Status::IoError(std::move(msg));
}

}  // namespace

bool FaultyEdgeStream::ApplyDueFaults() {
  while (const FaultPoint* point = schedule_.Due(delivered_)) {
    if (point->kind == FaultKind::kStall) {
      const auto start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(point->param));
      stall_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      continue;
    }
    injected_ = InjectedStatus(*point);
    return false;
  }
  return true;
}

std::size_t FaultyEdgeStream::CapPull(std::size_t max_edges) const {
  const std::uint64_t next = schedule_.next_at();
  if (next == std::numeric_limits<std::uint64_t>::max()) return max_edges;
  // next >= delivered_ here: any earlier point already fired in
  // ApplyDueFaults before the pull.
  const std::uint64_t room = next - delivered_;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(max_edges, std::max<std::uint64_t>(room, 1)));
}

EventBatchView FaultyEdgeStream::NextEventBatchView(
    std::size_t max_edges, stream::EventScratch* scratch) {
  if (!injected_.ok() || !ApplyDueFaults()) return {};
  const EventBatchView view =
      inner_.NextEventBatchView(CapPull(max_edges), scratch);
  delivered_ += view.size();
  return view;
}

bool FaultyEdgeStream::ready(std::size_t max_edges) const {
  if (!injected_.ok()) return true;  // the failure is deliverable now
  return inner_.ready(CapPull(max_edges));
}

void FaultyEdgeStream::Rewind() {
  inner_.Reset();
  schedule_.Reset();
  delivered_ = 0;
  injected_ = Status::Ok();
}

}  // namespace fault
}  // namespace tristream
