// Fixed-size worker pool for running independent analyses concurrently:
// the serve request pool and the fuzz campaign's programs. Each analysis
// itself runs on one thread.
//
// The pool is deliberately minimal: a FIFO task queue drained by N worker
// threads. Determinism does not come from the pool (task *completion* order
// is scheduling-dependent) but from the discipline built on top of it:
// every task derives its RNG stream from (master_seed, task_index) via
// derive_seed(), and results are collected in task-index order, so the
// output is bit-identical for any pool size. With one worker the FIFO queue
// runs tasks in submission order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace statsym {

// Resolves a user-facing thread-count request: 0 means "all hardware
// threads" (with a floor of 1 when hardware_concurrency is unknown).
std::size_t effective_threads(std::size_t requested);

class ThreadPool {
 public:
  // Spawns exactly effective_threads(threads) workers.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();  // drains the queue, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; the future resolves when it has run. Exceptions thrown
  // by the task are captured into the future.
  std::future<void> submit(std::function<void()> fn);

  // Runs fn(i) for every i in [0, n), distributing across the workers, and
  // blocks until all calls completed. fn must be safe to invoke
  // concurrently from multiple threads.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_{false};
};

}  // namespace statsym
