// Fixed-size worker pool. Backs the batched encoder's stripe
// preparation, the RPC client's callback-async API, and parallel
// encode sweeps in benches.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace corec {

/// Simple FIFO thread pool with graceful shutdown. Tasks must not throw.
class ThreadPool {
 public:
  /// Starts `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

  /// Runs fn(i) for every i in [0, n), fanned out across the pool in
  /// contiguous chunks; blocks until all indices completed. Unlike
  /// wait_idle() it only waits for its own work, so concurrent
  /// parallel_for calls (and unrelated submits) don't serialize.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace corec
