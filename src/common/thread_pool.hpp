// Fixed-size worker pool. Backs the RPC client's callback-async API.
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
