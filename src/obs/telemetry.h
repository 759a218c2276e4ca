// Telemetry shards and the merged aggregate (src/obs/ spine).
//
// A TelemetryShard is one thread's private landing zone for metric
// writes and trace events: no locks, no atomics.  The trial engine
// installs a fresh shard per grid cell (ShardScope), runs the cell, and
// afterwards merges every cell shard into the process aggregate in
// fixed row-major (point, trial) order.  Because each cell's content
// depends only on its counter-based Rng stream, and the merge order is
// the grid order, the aggregate — and its JSON rendering — is
// byte-identical at any worker count (see docs/OBSERVABILITY.md for the
// full determinism contract; wall-clock profiling data deliberately
// lives outside this file, in profile.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ms::obs {

class TelemetryShard {
 public:
  /// Per-shard event ring capacity: events past this are counted in
  /// events_dropped() rather than stored (the cap is per grid cell, so
  /// drops are as deterministic as the events themselves).
  static constexpr std::size_t kEventCapacity = 1024;

  void add(MetricId id, std::uint64_t n);
  void observe(MetricId id, double value);
  void record_event(const TraceEvent& ev);

  /// Fold `src` into this shard.  Counters and histogram tallies add;
  /// events append.  Deterministic for a fixed merge order.
  void merge_from(const TelemetryShard& src);

  void clear();

  // --- inspection ---
  std::uint64_t counter_value(MetricId id) const;
  struct HistogramValue {
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  HistogramValue histogram_value(MetricId id) const;
  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t events_dropped() const { return events_dropped_; }

 private:
  struct Slot {
    std::uint64_t count = 0;            // counter / histogram n
    double value = 0.0;                 // histogram sum
    std::vector<std::uint64_t> buckets; // histogram tallies
  };
  Slot& slot(MetricId id);
  const Slot* find(MetricId id) const;

  std::vector<Slot> slots_;  ///< indexed by MetricId, grown on demand
  std::vector<TraceEvent> events_;
  std::uint64_t events_dropped_ = 0;
};

/// Master kill switch.  When disabled, ShardScope installs nothing, so
/// every metric write and event emission reduces to a branch.
bool enabled();
void set_enabled(bool on);

namespace detail {
TelemetryShard* current_shard();
/// Deterministic JSON scalar/string rendering shared by the metrics JSON
/// and run-manifest writers: integral doubles print bare, everything
/// else %.17g.
std::string json_number(double v);
std::string json_escape(const std::string& s);
}  // namespace detail

/// RAII: install `shard` as this thread's telemetry sink (restores the
/// previous sink on destruction).  Passing the shard the writes should
/// land in — a per-cell shard inside the trial engine, or the process
/// aggregate for single-threaded tools.
class ShardScope {
 public:
  explicit ShardScope(TelemetryShard* shard);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  TelemetryShard* prev_;
};

/// The deterministic trace clock, stamped onto every emitted event.
/// The trial engine sets (point, trial) per cell; instrumented
/// subsystems advance sim_time in their own unit (slot index for the
/// link layer, seconds for waveform-level stages).
struct TraceClock {
  std::uint32_t point = 0;
  std::uint32_t trial = 0;
  double sim_time = 0.0;
};
void set_trace_cell(std::uint32_t point, std::uint32_t trial);
void set_sim_time(double t);
TraceClock trace_clock();

// --- the process aggregate -------------------------------------------

/// Merge one shard into the process aggregate.  Call from one thread at
/// a time, in the order that should define event ordering (the
/// trial engine calls it cell by cell, row-major).
void aggregate_merge(const TelemetryShard& shard);

/// Read access to the aggregate (tests, report writers).
const TelemetryShard& aggregate();

/// Drop all aggregated values and events (metric definitions persist).
void reset_aggregate();

// --- serialization ----------------------------------------------------

/// Render the aggregate's metrics as deterministic JSON: keys sorted by
/// metric name, doubles printed with %.17g, schema "ms.metrics.v1".
/// Wall-clock profiling data is excluded by design — it can never be
/// byte-identical across runs (see docs/OBSERVABILITY.md).
void write_metrics_json(std::ostream& out);
std::string metrics_json_string();
void write_metrics_json_file(const std::string& path);

/// Render the aggregate's events as JSONL, one event per line, in merge
/// (row-major grid) order.
void write_trace_jsonl(std::ostream& out);
void write_trace_jsonl_file(const std::string& path);

}  // namespace ms::obs
