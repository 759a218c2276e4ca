// ThreadPool scheduling observability (WorkerStats).  The trial
// engine's exception-path telemetry (a throwing cell's shard still
// reaches the aggregate) is pinned in runner_test.cpp.
#include <atomic>
#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sim/runner/thread_pool.h"

namespace ms {
namespace {

std::uint64_t sum_tasks(const std::vector<ThreadPool::WorkerStats>& stats) {
  std::uint64_t sum = 0;
  for (const auto& s : stats) sum += s.tasks;
  return sum;
}

TEST(WorkerStats, TasksSumToSubmittedCount) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<std::uint64_t> ran{0};
    pool.run_indexed(257, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 257u);
    const auto stats = pool.worker_stats();
    ASSERT_EQ(stats.size(), threads);
    EXPECT_EQ(sum_tasks(stats), 257u)
        << "executed-task tallies must account for every submitted index"
        << " at " << threads << " threads";
  }
}

TEST(WorkerStats, SingleThreadNeverSteals) {
  ThreadPool pool(1);
  pool.run_indexed(100, [](std::size_t) {});
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].steals, 0u);
  EXPECT_EQ(stats[0].tasks, 100u);
}

TEST(WorkerStats, AccumulateAcrossJobsAndReset) {
  ThreadPool pool(2);
  pool.run_indexed(40, [](std::size_t) {});
  pool.run_indexed(60, [](std::size_t) {});
  EXPECT_EQ(sum_tasks(pool.worker_stats()), 100u);
  pool.reset_worker_stats();
  for (const auto& s : pool.worker_stats()) {
    EXPECT_EQ(s.tasks, 0u);
    EXPECT_EQ(s.steals, 0u);
    EXPECT_EQ(s.busy_ns, 0u);
  }
}

TEST(WorkerStats, TasksStillCountedWhenATaskThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_indexed(50,
                                [](std::size_t i) {
                                  if (i == 25) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  // The pool drains the whole job before rethrowing, so every index is
  // accounted for — including the one that threw.
  EXPECT_EQ(sum_tasks(pool.worker_stats()), 50u);
}

}  // namespace
}  // namespace ms
