// Deterministic parallel Monte-Carlo engine.
//
// A sweep is a (parameter-point × trial) grid.  TrialRunner fans the
// grid out across a work-stealing ThreadPool as independent tasks; each
// task draws from a counter-based RNG stream derived from
// (master_seed, point_index, trial_index) via Rng::fork(point, trial),
// and writes its result into a per-task slot.  Reductions then walk the
// slots in fixed row-major (point, trial) order.  Together these two
// rules make every sweep byte-identical regardless of thread count or
// scheduling order — see docs/RUNNER.md.
//
// Telemetry rides the same rules: every cell runs against its own
// obs::TelemetryShard (stamped with the (point, trial) trace clock),
// and the shards are merged into the process aggregate in the same
// row-major order — including when a task throws, so the failing cell's
// partial metrics are preserved.  Aggregated telemetry is therefore as
// thread-count-independent as the results (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/runner/thread_pool.h"
#include "sim/runner/waveform_cache.h"

namespace ms {

struct RunnerConfig {
  std::size_t threads = 0;        ///< 0 = ThreadPool::hardware_threads()
  std::uint64_t master_seed = 1;  ///< root of every per-trial stream
};

class TrialRunner {
 public:
  explicit TrialRunner(const RunnerConfig& cfg)
      : cfg_(cfg), master_(cfg.master_seed), pool_(cfg.threads) {
    // Each runner opens a fresh waveform-cache accounting epoch, so the
    // cache hit/miss counters a sweep records are a pure function of
    // that sweep's own draws — never of what earlier sweeps in the same
    // process happened to synthesize (see waveform_cache.h).
    WaveformCache::instance().begin_epoch();
  }

  std::size_t threads() const { return pool_.size(); }
  const RunnerConfig& config() const { return cfg_; }

  /// Run fn(point, trial, rng) for every cell of the grid.  Results come
  /// back in row-major (point-major) order: out[point * trials + trial].
  /// If a cell throws, every other cell still runs, every shard is
  /// merged, the failing cell's partial one included, and the first
  /// exception is rethrown.
  template <typename Fn>
  auto run_grid(std::size_t points, std::size_t trials, Fn&& fn) {
    using R = decltype(fn(std::size_t{0}, std::size_t{0},
                          std::declval<Rng&>()));
    std::vector<R> out(points * trials);
    std::vector<obs::TelemetryShard> shards(points * trials);
    try {
      pool_.run_indexed(points * trials, [&](std::size_t i) {
        const std::size_t point = i / trials;
        const std::size_t trial = i % trials;
        obs::ShardScope telemetry(&shards[i]);
        obs::set_trace_cell(static_cast<std::uint32_t>(point),
                            static_cast<std::uint32_t>(trial));
        Rng rng = master_.fork(point, trial);
        out[i] = fn(point, trial, rng);
      });
    } catch (...) {
      // Preserve what the cells recorded before the failure — the
      // failing cell's partial shard included — then re-throw.
      merge_shards(shards);
      throw;
    }
    merge_shards(shards);
    return out;
  }

  /// Grid fan-out with a fixed-order reduction: after every trial
  /// completes, merge(acc, point, trial, result) is applied serially in
  /// row-major grid order — never in completion order.
  template <typename Acc, typename Fn, typename Merge>
  Acc run_reduce(std::size_t points, std::size_t trials, Acc acc, Fn&& fn,
                 Merge&& merge) {
    auto results = run_grid(points, trials, std::forward<Fn>(fn));
    for (std::size_t p = 0; p < points; ++p)
      for (std::size_t t = 0; t < trials; ++t)
        merge(acc, p, t, results[p * trials + t]);
    return acc;
  }

 private:
  /// Row-major telemetry reduction, mirroring the result reduction.
  static void merge_shards(const std::vector<obs::TelemetryShard>& shards) {
    if (!obs::enabled()) return;
    for (const obs::TelemetryShard& s : shards) obs::aggregate_merge(s);
  }

  RunnerConfig cfg_;
  Rng master_;
  ThreadPool pool_;
};

}  // namespace ms
