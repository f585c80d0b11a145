#include "stream/queue_stream.h"

#include <algorithm>

#include "util/timer.h"

namespace tristream {
namespace stream {

QueueEdgeStream::QueueEdgeStream(std::size_t capacity_edges)
    : capacity_(std::max<std::size_t>(capacity_edges, 1)) {}

bool QueueEdgeStream::Push(const Edge& e) {
  return PushEvent(EdgeEvent(e, EdgeOp::kInsert));
}

bool QueueEdgeStream::PushEvent(const EdgeEvent& e) {
  std::unique_lock<std::mutex> lock(mu_);
  can_push_.wait(lock,
                 [this] { return buffer_.size() < capacity_ || closed_; });
  if (closed_) return false;
  buffer_.push_back(e);
  if (e.is_delete()) delete_pushed_ = true;
  // One event satisfies any waiting pop; no need to wake other producers.
  can_pop_.notify_one();
  return true;
}

std::size_t QueueEdgeStream::Push(std::span<const Edge> edges) {
  return PushEvents(edges, {});
}

std::size_t QueueEdgeStream::PushEvents(std::span<const Edge> edges,
                                        std::span<const EdgeOp> ops) {
  std::size_t pushed = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (pushed < edges.size()) {
    can_push_.wait(lock,
                   [this] { return buffer_.size() < capacity_ || closed_; });
    if (closed_) break;
    // Admit as much of the run as fits right now; holding the lock for the
    // whole insert keeps the run contiguous in the stream.
    const std::size_t room = capacity_ - buffer_.size();
    const std::size_t take = std::min(room, edges.size() - pushed);
    for (std::size_t i = 0; i < take; ++i) {
      const EdgeOp op = ops.empty() ? EdgeOp::kInsert : ops[pushed + i];
      buffer_.emplace_back(edges[pushed + i], op);
      if (op == EdgeOp::kDelete) delete_pushed_ = true;
    }
    pushed += take;
    can_pop_.notify_one();
  }
  return pushed;
}

std::size_t QueueEdgeStream::TryPush(std::span<const Edge> edges) {
  return TryPushEvents(edges, {});
}

std::size_t QueueEdgeStream::TryPushEvents(std::span<const Edge> edges,
                                           std::span<const EdgeOp> ops) {
  std::size_t pushed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return 0;
    const std::size_t room = capacity_ - buffer_.size();
    pushed = std::min(room, edges.size());
    for (std::size_t i = 0; i < pushed; ++i) {
      const EdgeOp op = ops.empty() ? EdgeOp::kInsert : ops[i];
      buffer_.emplace_back(edges[i], op);
      if (op == EdgeOp::kDelete) delete_pushed_ = true;
    }
  }
  if (pushed > 0) can_pop_.notify_one();
  return pushed;
}

void QueueEdgeStream::SetSpaceHook(std::function<void()> hook) {
  space_hook_ = std::move(hook);
}

void QueueEdgeStream::Close(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  // A failure report must survive even after a clean close already won the
  // race (and the first failure wins against later ones).
  if (status_.ok() && !status.ok()) status_ = std::move(status);
  if (closed_) return;
  closed_ = true;
  can_push_.notify_all();
  can_pop_.notify_all();
}

std::size_t QueueEdgeStream::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

bool QueueEdgeStream::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

bool QueueEdgeStream::turnstile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delete_pushed_;
}

std::size_t QueueEdgeStream::PopEvents(std::size_t max_edges,
                                       std::vector<Edge>* edges,
                                       std::vector<EdgeOp>* ops) {
  edges->clear();
  ops->clear();
  if (max_edges == 0) return 0;
  std::unique_lock<std::mutex> lock(mu_);
  // Block until a *full* batch is available (or the queue closes, after
  // which the remainder drains) -- the same chunking-independence the
  // socket source gets by filling batches across frames: batch boundaries
  // are decided by the consumer's request size, never by producer timing,
  // so estimates are bit-identical to file/memory ingest of the same
  // events. A slow feed therefore reads as slow I/O (the wait lands on the
  // I/O stopwatch), not as a ragged batch. Capped at capacity so a
  // request larger than the buffer cannot deadlock against blocked
  // producers.
  const std::size_t goal = std::min(max_edges, capacity_);
  if (buffer_.size() < goal && !closed_) {
    WallTimer wait_timer;
    can_pop_.wait(lock,
                  [this, goal] { return buffer_.size() >= goal || closed_; });
    wait_seconds_ += wait_timer.Seconds();
  }
  const std::size_t take = std::min(max_edges, buffer_.size());
  const bool was_full = buffer_.size() >= capacity_;
  bool any_delete = false;
  for (std::size_t i = 0; i < take; ++i) {
    edges->push_back(buffer_[i].edge);
    ops->push_back(buffer_[i].op);
    any_delete = any_delete || buffer_[i].is_delete();
  }
  // All-insert batches report an empty ops span so downstream keeps the
  // insert-only fast path.
  if (!any_delete) ops->clear();
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(take));
  delivered_ += take;
  if (take > 0) can_push_.notify_all();
  const bool freed_space = was_full && take > 0;
  lock.unlock();
  // Fire the space hook outside the lock: it typically pokes an eventfd or
  // scheduler, and must be free to call back into the queue.
  if (freed_space && space_hook_) space_hook_();
  return take;
}

EventBatchView QueueEdgeStream::NextEventBatchView(std::size_t max_edges,
                                                   EventScratch* scratch) {
  PopEvents(max_edges, &scratch->edges, &scratch->ops);
  return EventBatchView{std::span<const Edge>(scratch->edges),
                        std::span<const EdgeOp>(scratch->ops)};
}

bool QueueEdgeStream::ready(std::size_t max_edges) const {
  if (max_edges == 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size() >= std::min(max_edges, capacity_) || closed_;
}

void QueueEdgeStream::Rewind() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  closed_ = false;
  delete_pushed_ = false;
  status_ = Status::Ok();
  delivered_ = 0;
  wait_seconds_ = 0.0;
}

std::uint64_t QueueEdgeStream::edges_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

double QueueEdgeStream::io_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wait_seconds_;
}

Status QueueEdgeStream::source_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace stream
}  // namespace tristream
