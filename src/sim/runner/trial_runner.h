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
#include <cstdio>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dsp/kernels/arena.h"
#include "obs/flight.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/runner/cell_filter.h"
#include "sim/runner/thread_pool.h"
#include "sim/runner/watchdog.h"
#include "sim/runner/waveform_cache.h"

namespace ms {

struct RunnerConfig {
  std::size_t threads = 0;        ///< 0 = ThreadPool::hardware_threads()
  std::uint64_t master_seed = 1;  ///< root of every per-trial stream
  /// Per-cell watchdog deadline in seconds: a cell running longer is
  /// cancelled and quarantined as a poison cell (watchdog.h).  0
  /// disables the watchdog; a negative value (the default) defers to
  /// runner::default_trial_deadline(), i.e. the --trial-deadline-ms
  /// flag.
  double trial_deadline_s = -1.0;
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
  const ThreadPool& pool() const { return pool_; }
  ThreadPool& pool() { return pool_; }

  /// Run fn(point, trial, rng) for every cell of the grid.  Results come
  /// back in row-major (point-major) order: out[point * trials + trial].
  ///
  /// When a trial deadline is set, overdue cells are cancelled by the
  /// watchdog and quarantined as poison cells (default R,
  /// runner.poison_cells counter + "runner.poison_cell" trace event)
  /// rather than wedging the pool.
  template <typename Fn>
  auto run_grid(std::size_t points, std::size_t trials, Fn&& fn) {
    using R = decltype(fn(std::size_t{0}, std::size_t{0},
                          std::declval<Rng&>()));
    std::vector<R> out(points * trials);
    std::vector<obs::TelemetryShard> shards(points * trials);
    double deadline_s = cfg_.trial_deadline_s;
    if (deadline_s < 0.0) deadline_s = runner::default_trial_deadline();
    runner::Watchdog watchdog(deadline_s, pool_.size());
    try {
      pool_.run_indexed(points * trials, [&](std::size_t i) {
        const std::size_t point = i / trials;
        const std::size_t trial = i % trials;
        // Triage mode (--only-cell): skip everything but the selected
        // cell before any work — no Rng fork, no shard.
        if (!runner::cell_allowed(point, trial)) return;
        {
          obs::ShardScope telemetry(&shards[i]);
          obs::set_trace_cell(static_cast<std::uint32_t>(point),
                              static_cast<std::uint32_t>(trial));
          // Rewind this worker's kernel scratch arena: per-cell scratch
          // is recycled, so steady-state cells allocate nothing.
          kernels::scratch_arena().reset();
          runner::Watchdog::CellScope cell(
              watchdog, static_cast<std::uint32_t>(point),
              static_cast<std::uint32_t>(trial));
          try {
            if (runner::take_hang(static_cast<std::uint32_t>(point),
                                  static_cast<std::uint32_t>(trial)))
              runner::hang_until_cancelled();
            Rng rng = master_.fork(point, trial);
            out[i] = fn(point, trial, rng);
          } catch (const runner::CellCancelled& c) {
            // Quarantine: default result, poison counter, structured
            // report.  Wall-clock elapsed goes to stderr only — the
            // deterministic record carries (point, trial, deadline).
            std::fprintf(stderr, "warning: %s\n", c.what());
            obs::add(runner::poison_metric());
            obs::Event(obs::Subsystem::Runner, obs::Severity::Warn,
                       "runner.poison_cell")
                .f("point", c.point)
                .f("trial", c.trial)
                .f("deadline_s", c.deadline_s)
                .emit();
            obs::flight::record_incident("watchdog_quarantine", c.what(),
                                         c.point, c.trial, shards[i]);
          } catch (const std::exception& e) {
            // The sweep is about to die on this exception — capture the
            // failing cell's trace ring first so the error ships with a
            // self-contained repro bundle.
            obs::flight::record_incident(
                "exception", e.what(), static_cast<std::uint32_t>(point),
                static_cast<std::uint32_t>(trial), shards[i]);
            throw;
          }
        }
        // Per-cell trace-ring overflow accounting: one histogram
        // observation valued at this cell's dropped-event count, folded
        // into the cell's own shard.
        if (const std::uint64_t dropped = shards[i].events_dropped())
          shards[i].observe(runner::trace_ring_drop_metric(),
                            static_cast<double>(dropped));
      });
    } catch (...) {
      // Preserve what the cells recorded before the failure — the
      // failing cell's partial shard included — then re-throw.
      merge_shards(shards);
      throw;
    }
    merge_shards(shards);
    warn_trace_ring_drops(shards);
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

  /// Point-only sweep (one trial per point): fn(point, rng) -> R.
  /// Delegates to run_grid(points, 1, ...) — same Rng forks, same trace
  /// cells, same merge order as the hand-rolled loop it replaces, and
  /// point-only sweeps pick up the watchdog for free.
  template <typename Fn>
  auto map_points(std::size_t points, Fn&& fn) {
    return run_grid(points, 1,
                    [&fn](std::size_t point, std::size_t /*trial*/,
                          Rng& rng) { return fn(point, rng); });
  }

 private:
  /// Row-major telemetry reduction, mirroring the result reduction.
  static void merge_shards(const std::vector<obs::TelemetryShard>& shards) {
    if (!obs::enabled()) return;
    for (const obs::TelemetryShard& s : shards) obs::aggregate_merge(s);
  }

  /// One-line heads-up when any cell overflowed its trace ring: the
  /// trace JSONL is still deterministic, but it is incomplete, and the
  /// per-cell tally lives in the runner.trace_ring_dropped histogram.
  static void warn_trace_ring_drops(
      const std::vector<obs::TelemetryShard>& shards) {
    std::size_t cells = 0;
    std::uint64_t events = 0;
    for (const obs::TelemetryShard& s : shards)
      if (const std::uint64_t d = s.events_dropped()) {
        ++cells;
        events += d;
      }
    if (cells > 0)
      std::fprintf(stderr,
                   "warning: trace ring overflow: %zu cell%s dropped %llu "
                   "event%s (see runner.trace_ring_dropped histogram)\n",
                   cells, cells == 1 ? "" : "s",
                   static_cast<unsigned long long>(events),
                   events == 1 ? "" : "s");
  }

  RunnerConfig cfg_;
  Rng master_;
  ThreadPool pool_;
};

}  // namespace ms
