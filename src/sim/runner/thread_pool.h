// Work-stealing thread pool for the Monte-Carlo trial engine.
//
// A fixed set of workers, each with its own task deque.  An indexed job
// is split into contiguous index ranges that are dealt round-robin to
// the worker deques; a worker drains its own deque front-first and, when
// empty, steals ranges from the back of a sibling's deque.  The pool
// only affects *which thread* computes an index, never *what* is
// computed for it, so callers that write per-index slots get results
// that are independent of worker count and scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ms {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static std::size_t hardware_threads();

  /// Run fn(index) for every index in [0, n) across the pool and block
  /// until all calls return.  fn is invoked concurrently from pool
  /// threads and must be thread-safe.  Not reentrant: do not call
  /// run_indexed from inside fn.  If fn throws, every other index still
  /// runs, and the first exception is rethrown here after the job
  /// drains.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  struct Worker {
    std::mutex m;
    std::deque<Range> q;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, Range& out);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex job_m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::exception_ptr error_;   ///< first exception thrown by a task
  std::size_t remaining_ = 0;  ///< indices not yet executed for this job
  std::uint64_t epoch_ = 0;    ///< bumped once per run_indexed call
  bool stop_ = false;
};

}  // namespace ms
