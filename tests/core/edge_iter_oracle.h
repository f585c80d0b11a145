// Reference edgeIter (Algorithm 2 of the paper), kept as a test oracle.
//
// edgeIter sweeps a batch B once, maintaining the in-batch degree table
// deg[], and emits two event kinds:
//   EVENTA(i, {x,y}, deg)   -- after edge i, the degree table is deg;
//   EVENTB(i, {x,y}, v, a)  -- after edge i, vertex v's degree became a.
// Observation 3.6 turns these events into an implicit description of every
// estimator's level-2 candidate set N(r1) ∩ B. The library materialises
// them once per batch in core::BatchIndex; this literal sweep is what the
// index is checked against (batch_index_test.cc) and what the Figure 2
// worked-example tests (bulk_counter_test.cc) run.

#ifndef TRISTREAM_TESTS_CORE_EDGE_ITER_ORACLE_H_
#define TRISTREAM_TESTS_CORE_EDGE_ITER_ORACLE_H_

#include <cstdint>
#include <span>

#include "util/flat_hash_map.h"
#include "util/types.h"

namespace tristream {
namespace core {

/// Runs Algorithm 2 over `batch`. `deg` is cleared and, after the call,
/// holds deg_B (the in-batch degree of every touched vertex). on_event_a is
/// invoked once per edge as on_event_a(i, edge) with `deg` already updated
/// (callers query deg for the snapshot); on_event_b twice per edge as
/// on_event_b(i, edge, vertex, new_degree).
template <typename OnEventA, typename OnEventB>
void RunEdgeIter(std::span<const Edge> batch,
                 FlatHashMap<std::uint32_t>& deg, OnEventA&& on_event_a,
                 OnEventB&& on_event_b) {
  deg.Clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Edge& e = batch[i];
    // Copy the updated values out before the second operator[] call, which
    // may rehash and invalidate references.
    const std::uint32_t dx = ++deg[e.u];
    const std::uint32_t dy = ++deg[e.v];
    on_event_a(i, e);
    on_event_b(i, e, e.u, dx);
    on_event_b(i, e, e.v, dy);
  }
}

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_TESTS_CORE_EDGE_ITER_ORACLE_H_
