#include "sim/runner/thread_pool.h"

#include <algorithm>

#include "common/error.h"

namespace ms {

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? hardware_threads() : threads;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    queues_.push_back(std::make_unique<Worker>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(job_m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::try_pop(std::size_t self, Range& out) {
  // Own deque first (front — the ranges dealt to us, in order)…
  {
    Worker& w = *queues_[self];
    std::lock_guard<std::mutex> lk(w.m);
    if (!w.q.empty()) {
      out = w.q.front();
      w.q.pop_front();
      return true;
    }
  }
  // …then steal from the back of a sibling's deque.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    Worker& v = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lk(v.m);
    if (!v.q.empty()) {
      out = v.q.back();
      v.q.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(job_m_);
      work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
    }
    Range r;
    while (try_pop(self, r)) {
      // Re-read the job function per range: queued ranges only become
      // visible after job_fn_ is set in the same critical section, and
      // an unexecuted range keeps remaining_ > 0, so the pointer read
      // here always belongs to the job that queued this range.
      const std::function<void(std::size_t)>* fn = nullptr;
      {
        std::lock_guard<std::mutex> lk(job_m_);
        fn = job_fn_;
      }
      // One try per index: a throwing index must not skip the rest of
      // its range.
      for (std::size_t i = r.begin; i < r.end; ++i) {
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(job_m_);
          if (!error_) error_ = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lk(job_m_);
      remaining_ -= r.end - r.begin;
      if (remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Chunk so each worker sees several ranges (steal granularity) without
  // paying per-index queue traffic.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (size() * 8));
  {
    std::lock_guard<std::mutex> lk(job_m_);
    MS_CHECK(remaining_ == 0);  // not reentrant / no concurrent jobs
    job_fn_ = &fn;
    remaining_ = n;
    std::size_t next = 0, w = 0;
    while (next < n) {
      const Range r{next, std::min(n, next + chunk)};
      Worker& dst = *queues_[w % queues_.size()];
      std::lock_guard<std::mutex> wl(dst.m);
      dst.q.push_back(r);
      next = r.end;
      ++w;
    }
    ++epoch_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lk(job_m_);
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  job_fn_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace ms
