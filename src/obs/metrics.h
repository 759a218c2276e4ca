// Metrics registry (the "numbers" half of src/obs/).
//
// Metric definitions live in a process-global registry: a metric is a
// (name, kind) pair registered once — typically through a function-local
// static at the instrumentation site — and identified by a small dense
// id thereafter.  Recording is lock-free on the hot path: writes land in
// the calling thread's current TelemetryShard (see telemetry.h), which
// the trial engine installs per grid cell and later merges in fixed
// row-major order, so aggregated values are byte-identical at any
// --threads count.
//
// Naming scheme (see docs/OBSERVABILITY.md): lowercase dotted
// `subsystem.noun[_qualifier]`, e.g. `ident.abstain`, `tag.arq_retry`,
// `fault.burst`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ms::obs {

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { Counter, Histogram };

/// Register (or look up) a monotonic counter.  Registering an existing
/// name returns the existing id; re-registering under a different kind
/// throws ms::Error.
MetricId counter(const char* name);

/// Register (or look up) a histogram with fixed bucket upper bounds
/// (ascending; an implicit +inf overflow bucket is appended).  The
/// bounds are fixed at first registration; a second registration with
/// different bounds throws.
MetricId histogram(const char* name, std::span<const double> upper_bounds);

/// Hot-path recording.  Both are no-ops when no telemetry shard is
/// installed on this thread (i.e. outside an instrumented run or after
/// obs::set_enabled(false)).
void add(MetricId id, std::uint64_t n = 1);
void observe(MetricId id, double value);

/// Registry introspection (used by the JSON writer and tests).
struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::vector<double> bounds;  ///< histogram bucket upper bounds
};
std::size_t metric_count();
MetricDef metric_def(MetricId id);  ///< by value: the registry may grow

}  // namespace ms::obs
