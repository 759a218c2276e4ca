// The determinism contract of the parallel trial engine: same seed ⇒
// byte-identical output at any worker count; different seed ⇒ different
// output.  Plus ThreadPool/TrialRunner mechanics (full index coverage,
// work stealing under skew, exception propagation, merge order, the
// telemetry of a throwing cell and the trace of a cell that emits many
// events).
#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/ident_experiment.h"
#include "sim/runner/thread_pool.h"
#include "sim/runner/trial_runner.h"
#include "sim/trace_io.h"

namespace ms {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.run_indexed(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, HandlesEmptyAndTinyJobs) {
  ThreadPool pool(8);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "no indices expected"; });
  std::atomic<int> count{0};
  pool.run_indexed(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SurvivesBackToBackJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> sum{0};
    pool.run_indexed(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(4);
  // 4 workers and 64 indices deal two-index ranges: 17 ends its range
  // [16, 18), and 16 starts it, so a throw at 16 must not skip 17.
  for (const std::size_t thrower : {std::size_t{17}, std::size_t{16}}) {
    std::atomic<int> calls{0};
    EXPECT_THROW(pool.run_indexed(64,
                                  [&](std::size_t i) {
                                    calls.fetch_add(1);
                                    if (i == thrower)
                                      throw std::runtime_error("task");
                                  }),
                 std::runtime_error);
    // The job drains before the rethrow: every index ran, the throwing
    // one included.
    EXPECT_EQ(calls.load(), 64) << "throw at " << thrower;
  }
  // Pool must still be usable after a failed job.
  std::atomic<int> count{0};
  pool.run_indexed(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.run_indexed(16, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // single worker: no race
  });
  EXPECT_EQ(order.size(), 16u);
}

TEST(TrialRunner, GridIsRowMajorAndSeedDerived) {
  TrialRunner runner({2, 42});
  auto grid = runner.run_grid(3, 4, [](std::size_t p, std::size_t t, Rng& rng) {
    return std::to_string(p) + "," + std::to_string(t) + ":" +
           std::to_string(rng());
  });
  ASSERT_EQ(grid.size(), 12u);
  // Slots are (point, trial) row-major regardless of execution order.
  Rng master(42);
  for (std::size_t p = 0; p < 3; ++p)
    for (std::size_t t = 0; t < 4; ++t) {
      Rng expect = master.fork(p, t);
      EXPECT_EQ(grid[p * 4 + t], std::to_string(p) + "," + std::to_string(t) +
                                     ":" + std::to_string(expect()));
    }
}

TEST(TrialRunner, ReduceMergesInFixedOrder) {
  // The merge order must be grid order, not completion order, for ANY
  // thread count — record it and check.
  for (std::size_t threads : {1u, 3u, 8u}) {
    TrialRunner runner({threads, 7});
    std::vector<std::pair<std::size_t, std::size_t>> merged;
    runner.run_reduce(
        4, 5, 0,
        [](std::size_t p, std::size_t t, Rng&) { return p * 10 + t; },
        [&](int& acc, std::size_t p, std::size_t t, std::size_t r) {
          EXPECT_EQ(r, p * 10 + t);
          merged.emplace_back(p, t);
          acc += static_cast<int>(r);
        });
    ASSERT_EQ(merged.size(), 20u);
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].first, i / 5);
      EXPECT_EQ(merged[i].second, i % 5);
    }
  }
}

TEST(TrialRunner, SameSeedIdenticalAcrossThreadCounts) {
  auto run = [](std::size_t threads, std::uint64_t seed) {
    TrialRunner runner({threads, seed});
    return runner.run_grid(5, 7, [](std::size_t, std::size_t, Rng& rng) {
      // A few draws of mixed kinds, like a real trial.
      double acc = rng.uniform() + rng.normal();
      acc += static_cast<double>(rng() & 0xffff);
      return acc;
    });
  };
  const auto one = run(1, 99);
  EXPECT_EQ(one, run(2, 99));
  EXPECT_EQ(one, run(8, 99));
  EXPECT_NE(one, run(1, 100));  // different seed must actually differ
}

TEST(TrialRunner, ThrowingCellRethrowsAndKeepsPartialTelemetry) {
  // 3 x 2 cells: the throw skips no other cell, so all six run.
  const obs::MetricId cells = obs::counter("test.runner.throwing_grid_cells");
  for (std::size_t threads : {1u, 2u, 4u}) {
    obs::reset_aggregate();
    TrialRunner runner({threads, 7});
    try {
      runner.run_grid(3, 2, [&](std::size_t point, std::size_t trial, Rng&) {
        obs::add(cells);
        if (point == 1 && trial == 0)
          throw std::runtime_error("cell (1, 0) failed");
        return 0;
      });
      ADD_FAILURE() << "run_grid did not rethrow at " << threads
                    << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell (1, 0) failed") << threads << " threads";
    }
    // The failing cell's add, made before its throw, is merged too.
    EXPECT_EQ(obs::aggregate().counter_value(cells), 6u)
        << threads << " threads";
  }
  obs::reset_aggregate();
}

TEST(TrialRunner, TraceKeepsEveryEventOfACell) {
  const bool saved_tracing = obs::tracing();
  obs::set_tracing(true);
  obs::reset_aggregate();
  TrialRunner runner({2, 3});
  runner.run_grid(3, 2, [&](std::size_t point, std::size_t trial, Rng&) {
    const std::size_t n = point == 2 && trial == 1 ? 2000 : 1;
    for (std::size_t k = 0; k < n; ++k)
      obs::Event(obs::Subsystem::Arq, obs::Severity::Debug, "test.flood")
          .f("k", k)
          .emit();
    return 0;
  });
  obs::set_tracing(saved_tracing);
  // The flooded cell, last in row-major order, keeps all 2,000 events in
  // emission order after the five one-event cells before it.
  const std::vector<obs::TraceEvent>& events = obs::aggregate().events();
  ASSERT_EQ(events.size(), 2005u);
  for (std::size_t k = 0; k < 2000; ++k) {
    const obs::TraceEvent& ev = events[5 + k];
    ASSERT_EQ(ev.point, 2u);
    ASSERT_EQ(ev.trial, 1u);
    ASSERT_EQ(ev.fields[0].num, static_cast<double>(k));
  }
  obs::reset_aggregate();
}

IdentTrialConfig small_ident_config(std::uint64_t seed) {
  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.seed = seed;
  return cfg;
}

std::string confusion_csv_bytes(const IdentResult& r, const std::string& tag) {
  // Serialize exactly like msbench fig7_ordered does, then read the bytes
  // back, so "byte-identical CSV" is tested end to end.
  const std::string path = ::testing::TempDir() + "runner_confusion_" + tag +
                           ".csv";
  std::vector<CsvColumn> cols;
  cols.push_back({"true_protocol", {0, 1, 2, 3}});
  const char* names[5] = {"det_wifi_b", "det_wifi_n", "det_ble", "det_zigbee",
                          "det_none"};
  for (std::size_t d = 0; d < 5; ++d) {
    CsvColumn c{names[d], {}};
    for (std::size_t t = 0; t < 4; ++t)
      c.values.push_back(static_cast<double>(r.confusion[t][d]));
    cols.push_back(c);
  }
  save_csv(path, cols);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  return buf.str();
}

TEST(RunnerDeterminism, IdentSweepByteIdenticalOneVsEightThreads) {
  IdentTrialConfig cfg = small_ident_config(2024);
  cfg.threads = 1;
  const IdentResult serial = run_ident_experiment(cfg, 6);
  cfg.threads = 8;  // oversubscribed on small machines — still must match
  const IdentResult parallel = run_ident_experiment(cfg, 6);

  EXPECT_EQ(serial.confusion, parallel.confusion)
      << "reduction counters differ between 1 and 8 threads";
  EXPECT_EQ(confusion_csv_bytes(serial, "t1"),
            confusion_csv_bytes(parallel, "t8"))
      << "CSV output differs between 1 and 8 threads";

  // Per-protocol trial totals are invariants of the grid shape.
  for (Protocol p : kAllProtocols) EXPECT_EQ(parallel.trials(p), 6u);
}

TEST(RunnerDeterminism, DifferentSeedsDiffer) {
  // At the trace level two master seeds must give different noise draws
  // for the same grid cell (the sweep-level counters can coincide by
  // chance when accuracy saturates, the raw waveforms cannot).
  const IdentTrialConfig cfg = small_ident_config(2024);
  Rng a = Rng(2024).fork(0, 0);
  Rng b = Rng(77).fork(0, 0);
  const Samples ta = make_ident_trace(Protocol::WifiB, cfg, a);
  const Samples tb = make_ident_trace(Protocol::WifiB, cfg, b);
  EXPECT_NE(ta, tb) << "two master seeds produced the identical trace —"
                       " per-trial streams are not keyed on the seed";

  // And the same cell under the same seed reproduces exactly.
  Rng a2 = Rng(2024).fork(0, 0);
  EXPECT_EQ(ta, make_ident_trace(Protocol::WifiB, cfg, a2));
}

}  // namespace
}  // namespace ms
