#include "stream/edge_stream.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace tristream {
namespace stream {

std::span<const Edge> EdgeStream::NextBatchView(std::size_t max_edges,
                                                std::vector<Edge>* scratch) {
  // A refused stream stays refused: pulling on would hand out edges past
  // the delete it could not deliver.
  if (!edge_read_status_.ok()) return {};
  // Swapping the caller's vector in as the edge staging (and back out)
  // leaves a staged batch in *scratch, where the caller expects it.
  EventScratch events;
  events.edges.swap(*scratch);
  const EventBatchView view = NextEventBatchView(max_edges, &events);
  events.edges.swap(*scratch);
  if (!view.has_deletes()) return view.edges;
  const Status source = source_status();
  edge_read_status_ =
      source.ok() ? Status::InvalidArgument(
                        "stream carries delete events; this consumer reads "
                        "edges only -- use the event API or an estimator "
                        "that supports deletions")
                  : source;
  return {};
}

std::size_t EdgeStream::NextBatch(std::size_t max_edges,
                                  std::vector<Edge>* batch) {
  const std::span<const Edge> view = NextBatchView(max_edges, batch);
  // A staging source already left the batch in *batch; only a view into
  // the source's own storage needs the copy.
  if (view.data() == batch->data()) {
    batch->resize(view.size());
  } else {
    batch->assign(view.begin(), view.end());
  }
  return view.size();
}

void EdgeStream::Reset() {
  edge_read_status_ = Status::Ok();
  Rewind();
}

Status EdgeStream::status() const {
  return edge_read_status_.ok() ? source_status() : edge_read_status_;
}

void EdgeStream::Rewind() {
  TRISTREAM_CHECK(false) << "this stream cannot replay";
}

EventBatchView MemoryEdgeStream::NextEventBatchView(
    std::size_t max_edges, EventScratch* /*scratch*/) {
  const std::size_t take = std::min<std::size_t>(
      max_edges, edges_->size() - static_cast<std::size_t>(cursor_));
  std::span<const EdgeOp> ops;
  if (ops_ != nullptr && !ops_->empty()) {
    ops = std::span<const EdgeOp>(ops_->data() + cursor_, take);
  }
  const EventBatchView view{
      std::span<const Edge>(edges_->data() + cursor_, take), ops};
  cursor_ += take;
  return view;
}

bool MemoryEdgeStream::turnstile() const {
  return ops_ != nullptr &&
         std::find(ops_->begin(), ops_->end(), EdgeOp::kDelete) !=
             ops_->end();
}

graph::EdgeList ShuffleStreamOrder(const graph::EdgeList& edges,
                                   std::uint64_t seed) {
  std::vector<Edge> shuffled = edges.edges();
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  return graph::EdgeList(std::move(shuffled));
}

}  // namespace stream
}  // namespace tristream
