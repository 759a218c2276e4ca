// Per-trial watchdog for the sweep engine.
//
// A hung cell (infinite loop, pathological input) must not wedge the
// whole pool.  Cancellation is cooperative: each executing cell owns a
// per-worker deadline slot, a monitor thread marks slots whose cell has
// run past the deadline, and instrumented code polls the mark via
// watchdog_poll(), which throws CellCancelled.  run_grid catches the
// exception, quarantines the cell (default result, structured
// "runner.poison_cell" trace event + runner.poison_cells counter), and
// the sweep completes without it.
//
// Determinism note: whether a cell trips its deadline depends on wall
// time, so a poisoned cell is NOT byte-identical to a healthy run —
// that is the point (quarantine beats wedging).  What stays
// deterministic is the report: the poison record carries (point, trial,
// deadline) only; elapsed wall time goes to stderr, never into the
// metrics JSON or trace stream (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"

namespace ms::runner {

/// Thrown by watchdog_poll() inside a cancelled cell; caught by
/// run_grid's cell wrapper, never escapes the sweep.
struct CellCancelled : std::runtime_error {
  CellCancelled(std::uint32_t point, std::uint32_t trial, double deadline_s,
                double elapsed_s);
  std::uint32_t point;
  std::uint32_t trial;
  double deadline_s;
  double elapsed_s;  ///< wall time; report to stderr only (see above)
};

/// One watchdog per run_grid call.  Inactive (every hook a no-op) when
/// deadline_s <= 0; otherwise spawns a monitor thread for its lifetime.
class Watchdog {
 public:
  Watchdog(double deadline_s, std::size_t n_workers);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool active() const { return deadline_s_ > 0.0; }
  double deadline_s() const { return deadline_s_; }

  /// RAII: register the calling thread's current cell with the watchdog
  /// for the scope's lifetime (no-op when the watchdog is inactive).
  class CellScope {
   public:
    CellScope(Watchdog& wd, std::uint32_t point, std::uint32_t trial);
    ~CellScope();
    CellScope(const CellScope&) = delete;
    CellScope& operator=(const CellScope&) = delete;

   private:
    struct Slot* slot_ = nullptr;
  };

 private:
  friend class CellScope;
  void monitor_loop();

  double deadline_s_ = 0.0;
  std::size_t n_slots_ = 0;
  std::unique_ptr<struct Slot[]> slots_;
  std::atomic<bool> stop_{false};
  std::thread monitor_;
};

/// Throw CellCancelled if the calling thread's cell has been marked
/// overdue.  Cheap (one relaxed load) — instrumented inner loops call
/// it freely.  No-op outside a CellScope.
void watchdog_poll();

/// Hang-injection hook for the watchdog_quarantine gate.  With
/// MS_HANG_AT_CELL=P,T set, true exactly once per process: for the
/// first execution of cell (point P, trial T), which run_grid then
/// hangs via hang_until_cancelled().  The variable is parsed at first
/// use; a malformed value, or an index above 2^32 - 1, is an ms::Error
/// naming the variable and the value.  Unset, it costs one cached
/// boolean per cell.
bool take_hang(std::uint32_t point, std::uint32_t trial);

/// Spin poll+sleep until the watchdog cancels this cell.  Throws
/// ms::Error when no watchdog is active for the calling thread — a hang
/// with no watchdog would wedge.
[[noreturn]] void hang_until_cancelled();

/// Process default for RunnerConfig::trial_deadline_s == -1 ("use the
/// CLI --trial-deadline-ms value").  0 disables the watchdog.
void set_default_trial_deadline(double seconds);
double default_trial_deadline();

/// The "runner.poison_cells" counter, registered on first use so sweeps
/// that never poison a cell keep their metrics JSON identical to builds
/// without a watchdog (the JSON lists every registered counter).
obs::MetricId poison_metric();

/// The "runner.trace_ring_dropped" histogram: one observation per cell
/// that overflowed its trace ring, valued at that cell's dropped-event
/// count.  Lazily registered for the same reason as poison_metric() —
/// sweeps that never drop an event keep their metrics JSON unchanged.
obs::MetricId trace_ring_drop_metric();

}  // namespace ms::runner
