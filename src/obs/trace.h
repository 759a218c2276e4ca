// Structured event tracing (the "events" half of src/obs/).
//
// Events are small fixed-size records stamped with the deterministic
// (point, trial, sim_time) clock — never wall time — so two runs of the
// same seed produce byte-identical JSONL traces that diff cleanly.
// Emission is gated per subsystem by a bit mask, settable in code or
// via the MS_TRACE environment variable (`MS_TRACE=ident,arq,faults`,
// or `MS_TRACE=all`); with the mask clear the hot-path cost is one
// relaxed atomic load and a branch.
//
// Event names, field keys, and string field values must be string
// literals (or otherwise outlive the process): events store the
// pointers, not copies, so buffering stays allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ms::obs {

/// Subsystem bits for the trace enable mask.
enum class Subsystem : std::uint32_t {
  Ident = 1u << 0,    ///< protocol identifier (scores, abstains)
  Overlay = 1u << 1,  ///< overlay TX/RX (kappa/gamma, CRC outcomes)
  Arq = 1u << 2,      ///< tag link layer (ARQ attempts, adaptation)
  Faults = 1u << 3,   ///< fault injector (what was injected, where)
  Runner = 1u << 4,   ///< trial engine (cells, workers)
};
constexpr std::uint32_t kAllSubsystems = 0x1f;

enum class Severity : std::uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

const char* subsystem_name(Subsystem s);
const char* severity_name(Severity s);

/// Parse a comma-separated subsystem list ("ident,arq", "all", "") into
/// a mask.  Unknown tokens throw ms::Error naming the token.
std::uint32_t parse_trace_mask(const std::string& spec);

/// The active mask.  First call seeds it from the MS_TRACE environment
/// variable (unset/empty = 0 = tracing off).
std::uint32_t trace_mask();
void set_trace_mask(std::uint32_t mask);

inline bool trace_enabled(Subsystem s) {
  return (trace_mask() & static_cast<std::uint32_t>(s)) != 0;
}

/// One structured event.  Numeric fields hold `num`; string fields hold
/// a literal in `str` (and ignore `num`).
struct TraceEvent {
  static constexpr std::size_t kMaxFields = 6;
  struct Field {
    const char* key = nullptr;
    double num = 0.0;
    const char* str = nullptr;  ///< non-null = string-valued field
  };

  std::uint32_t point = 0;   ///< deterministic clock: grid point
  std::uint32_t trial = 0;   ///< deterministic clock: trial index
  double sim_time = 0.0;     ///< deterministic clock: subsystem time
  Subsystem subsys = Subsystem::Runner;
  Severity severity = Severity::Info;
  const char* name = nullptr;
  Field fields[kMaxFields];
  std::uint8_t n_fields = 0;
};

/// Builder for the emission sites:
///   obs::Event(Subsystem::Arq, Severity::Info, "arq.retry")
///       .f("attempt", attempts).f("seq", seq).emit();
/// Construction snapshots the mask; a disabled builder's .f()/.emit()
/// are no-ops, so fields are only materialized when someone listens.
class Event {
 public:
  Event(Subsystem subsys, Severity severity, const char* name);

  Event& f(const char* key, double value);
  Event& f(const char* key, std::int64_t value) {
    return f(key, static_cast<double>(value));
  }
  Event& f(const char* key, std::size_t value) {
    return f(key, static_cast<double>(value));
  }
  Event& f(const char* key, unsigned value) {
    return f(key, static_cast<double>(value));
  }
  Event& f(const char* key, int value) {
    return f(key, static_cast<double>(value));
  }
  Event& f(const char* key, bool value) {
    return f(key, value ? 1.0 : 0.0);
  }
  /// String-valued field; `value` must be a literal / static string.
  Event& fs(const char* key, const char* value);

  /// Stamp the deterministic clock and hand the event to the current
  /// telemetry shard's ring buffer.
  void emit();

 private:
  TraceEvent ev_;
  bool enabled_ = false;
};

/// Render one event as a JSON line (no trailing newline).
std::string event_to_json(const TraceEvent& ev);

}  // namespace ms::obs
