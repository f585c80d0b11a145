#include "util/thread_pool.h"

#include "util/logging.h"

namespace tristream {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t slot = 0; slot < num_threads; ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Dispatch(std::function<void(std::size_t)> task) {
  TRISTREAM_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    task_ = std::move(task);
    remaining_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
}

void ThreadPool::SetTask(std::function<void(std::size_t)> task) {
  TRISTREAM_CHECK(task != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  task_ = std::move(task);
}

void ThreadPool::Dispatch() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    TRISTREAM_CHECK(task_ != nullptr)
        << "Dispatch() without a published task (SetTask first)";
    remaining_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
}

bool ThreadPool::idle() const {
  std::unique_lock<std::mutex> lock(mu_);
  return remaining_ == 0;
}

void ThreadPool::WorkerLoop(std::size_t slot) {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_generation] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    // Invoke the shared callable in place: task_ is only (re)assigned
    // while every worker is idle (remaining_ == 0), and this worker's
    // decrement below is what lets the controller reach that state, so
    // the callable cannot change under us. This keeps the per-batch hot
    // path free of std::function copies on the workers too.
    task_(slot);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--remaining_ == 0) {
        lock.unlock();
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace tristream
