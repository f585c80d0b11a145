// Persistent worker pool with a generation barrier.
//
// The parallel counter hands every edge batch to all estimator shards.
// Spawning a std::thread per shard per batch pays thread-creation cost on
// every batch and serializes ingest against absorption; this pool keeps the
// workers alive for the life of the counter and replaces per-batch spawn
// with a condition-variable wakeup.
//
// Execution model ("per-slot tasks, generation barrier"):
//   * The pool owns `size()` workers, identified by slot index 0..size()-1.
//   * Dispatch(task) publishes one task for the *next generation*: every
//     worker runs task(slot) exactly once. Dispatch returns immediately,
//     so the caller can prepare the next batch while workers run (the
//     double-buffered pipeline in core::ParallelTriangleCounter).
//   * SetTask(task) + Dispatch() is the persistent-task mode for hot
//     dispatch loops: the task is published once and every no-argument
//     Dispatch() re-runs it for a new generation, so the steady state
//     (one dispatch per edge batch) never constructs, moves, or
//     heap-allocates a std::function.
//   * Wait() blocks until every worker has finished the current generation
//     (the batch-completion barrier). Dispatch on a busy pool implies
//     Wait() first, so generations never overlap and slot k's work for
//     generation g happens-before its work for generation g+1.
//
// The same slot index always maps to the same worker-owned shard state, so
// shard-local data needs no locking: it is touched only by its slot between
// Dispatch and Wait, and only by the caller otherwise (the barrier provides
// the synchronization edges both ways).
//
// Placement: slot k's shard state is only ever touched by worker k, so
// constructing that state *inside a generation* (a construction dispatch)
// first-touches its memory from the thread that will use it. Where the
// work runs never affects results.

#ifndef TRISTREAM_UTIL_THREAD_POOL_H_
#define TRISTREAM_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tristream {

/// Fixed-size persistent worker pool executing one task per slot per
/// generation. Not itself thread-safe: Dispatch/Wait/SetTask must come
/// from a single controller thread (the stream ingest thread).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Waits for any in-flight generation, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker slots.
  std::size_t size() const { return workers_.size(); }

  /// Publishes `task` as the next generation and wakes all workers; every
  /// worker runs task(slot_index) once. Returns without waiting for
  /// completion. If the previous generation is still running, blocks until
  /// it finishes first (generations never overlap). The published task
  /// also becomes the one Dispatch() reuses.
  void Dispatch(std::function<void(std::size_t)> task);

  /// Stores `task` as the persistent task without running it; subsequent
  /// Dispatch() calls re-run it, allocation-free. Blocks until the pool is
  /// idle (the task may not change under a running generation).
  void SetTask(std::function<void(std::size_t)> task);

  /// Re-dispatches the most recently published task (via SetTask or
  /// Dispatch(task)) as a new generation -- the hot path: no std::function
  /// is constructed, moved, or copied. Requires a task to have been
  /// published.
  void Dispatch();

  /// Blocks until the current generation (if any) has fully completed.
  /// After Wait() returns, all effects of the dispatched tasks are visible
  /// to the caller.
  void Wait();

  /// True when no generation is in flight (for tests and assertions).
  bool idle() const;

 private:
  void WorkerLoop(std::size_t slot);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: new generation/stop
  std::condition_variable done_cv_;  // signals controller: generation done
  /// The published task. Written only while the pool is idle (all workers
  /// blocked in wait), so workers may invoke it in place -- no per-worker,
  /// per-generation copy.
  std::function<void(std::size_t)> task_;
  std::uint64_t generation_ = 0;  // bumped once per Dispatch
  std::size_t remaining_ = 0;     // workers still running this generation
  bool stop_ = false;
};

}  // namespace tristream

#endif  // TRISTREAM_UTIL_THREAD_POOL_H_
