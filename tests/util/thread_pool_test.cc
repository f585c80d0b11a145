// Tests for the persistent worker pool: every slot runs exactly once per
// generation, Wait() is a real barrier, generations never overlap, the
// pool survives many small generations (the workload shape the parallel
// counter produces), and the persistent-task mode re-runs a published task
// without reconstructing it.

#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tristream {
namespace {

TEST(ThreadPoolTest, RunsEverySlotExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.Dispatch([&hits](std::size_t slot) { ++hits[slot]; });
  pool.Wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.Dispatch([&ran](std::size_t) { ++ran; });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, WaitIsABarrier) {
  // After Wait() returns, all task side effects must be visible without
  // any extra synchronization (plain non-atomic writes per slot).
  ThreadPool pool(8);
  std::vector<std::uint64_t> out(8, 0);
  pool.Dispatch([&out](std::size_t slot) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    out[slot] = 100 + slot;
  });
  pool.Wait();
  for (std::size_t slot = 0; slot < 8; ++slot) {
    EXPECT_EQ(out[slot], 100 + slot);
  }
  EXPECT_TRUE(pool.idle());
}

TEST(ThreadPoolTest, WaitWithoutDispatchReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  EXPECT_TRUE(pool.idle());
}

TEST(ThreadPoolTest, GenerationsNeverOverlap) {
  // A dispatch on a busy pool must not start until the previous
  // generation has fully drained: the in-flight counter can never exceed
  // the pool size, and per-slot sequences stay ordered.
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> total{0};
  for (int gen = 0; gen < 50; ++gen) {
    pool.Dispatch([&](std::size_t) {
      const int now = ++in_flight;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      ++total;
      --in_flight;
    });
  }
  pool.Wait();
  EXPECT_EQ(total.load(), 200);
  EXPECT_LE(max_in_flight.load(), 4);
}

TEST(ThreadPoolTest, SlotOwnedStateNeedsNoLocking) {
  // The parallel counter's contract: slot k exclusively owns shard k's
  // state between Dispatch and Wait. Accumulate into plain per-slot
  // counters over many generations and check the exact total.
  constexpr std::size_t kSlots = 3;
  constexpr std::uint64_t kGenerations = 500;
  ThreadPool pool(kSlots);
  std::vector<std::uint64_t> sums(kSlots, 0);
  for (std::uint64_t gen = 1; gen <= kGenerations; ++gen) {
    pool.Dispatch([&sums, gen](std::size_t slot) { sums[slot] += gen; });
  }
  pool.Wait();
  const std::uint64_t expected = kGenerations * (kGenerations + 1) / 2;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    EXPECT_EQ(sums[slot], expected) << "slot " << slot;
  }
}

TEST(ThreadPoolTest, DestructorDrainsInFlightWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    pool.Dispatch([&done](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
    // No Wait(): the destructor must drain the generation before joining.
  }
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPoolTest, PersistentTaskReRunsWithoutRepublishing) {
  // The hot dispatch path of the parallel counter: publish the absorb
  // task once, then Dispatch() once per batch with no std::function
  // traffic at all.
  constexpr std::size_t kSlots = 3;
  constexpr std::uint64_t kGenerations = 400;
  ThreadPool pool(kSlots);
  std::vector<std::uint64_t> counts(kSlots, 0);
  pool.SetTask([&counts](std::size_t slot) { ++counts[slot]; });
  for (std::uint64_t gen = 0; gen < kGenerations; ++gen) pool.Dispatch();
  pool.Wait();
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    EXPECT_EQ(counts[slot], kGenerations) << "slot " << slot;
  }
}

TEST(ThreadPoolTest, DispatchReusesMostRecentlyPublishedTask) {
  // A one-shot Dispatch(task) (the counter's reduction generation)
  // replaces the published task; Dispatch() afterwards re-runs the new
  // one until the next publication.
  ThreadPool pool(2);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  pool.SetTask([&a](std::size_t) { ++a; });
  pool.Dispatch();                           // a: 2
  pool.Dispatch([&b](std::size_t) { ++b; });  // b: 2
  pool.Dispatch();                           // b: 4
  pool.SetTask([&a](std::size_t) { ++a; });
  pool.Dispatch();                           // a: 4
  pool.Wait();
  EXPECT_EQ(a.load(), 4);
  EXPECT_EQ(b.load(), 4);
}

TEST(ThreadPoolTest, ConstructionGenerationBuildsSlotOwnedState) {
  // The parallel counter's placement pattern: a first generation
  // constructs each slot's state on its own worker (first-touch), later
  // generations use it, and the caller reads it after the barrier.
  constexpr std::size_t kSlots = 4;
  ThreadPool pool(kSlots);
  std::vector<std::unique_ptr<std::vector<std::uint64_t>>> state(kSlots);
  pool.Dispatch([&state](std::size_t slot) {
    state[slot] = std::make_unique<std::vector<std::uint64_t>>(128, 0);
  });
  pool.SetTask([&state](std::size_t slot) {
    for (std::uint64_t& x : *state[slot]) x += slot + 1;
  });
  for (int gen = 0; gen < 10; ++gen) pool.Dispatch();
  pool.Wait();
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    ASSERT_NE(state[slot], nullptr);
    for (const std::uint64_t x : *state[slot]) {
      EXPECT_EQ(x, 10 * (slot + 1));
    }
  }
}

TEST(ThreadPoolTest, ManyGenerationsStress) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int gen = 0; gen < 2000; ++gen) {
    pool.Dispatch([&total](std::size_t) { ++total; });
  }
  pool.Wait();
  EXPECT_EQ(total.load(), 8000u);
}

}  // namespace
}  // namespace tristream
