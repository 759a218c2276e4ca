// Structured event tracing (the "events" half of src/obs/).
//
// Events are small fixed-size records stamped with the deterministic
// (point, trial, sim_time) clock — never wall time — so two runs of the
// same seed produce byte-identical JSONL traces that diff cleanly.
// Emission is gated by one process-wide switch, which --trace-out turns
// on (sim/runner/cli.h); with it off the hot-path cost is one relaxed
// atomic load and a branch.
//
// Event names, field keys, and string field values must be string
// literals (or otherwise outlive the process): events store the
// pointers, not copies, so buffering stays allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ms::obs {

/// The layer an event comes from: its `subsys` label in the JSONL.
enum class Subsystem : std::uint8_t {
  Ident,    ///< protocol identifier (scores, abstains)
  Overlay,  ///< overlay TX/RX (kappa/gamma, CRC outcomes)
  Arq,      ///< tag link layer (ARQ attempts, adaptation)
  Faults,   ///< fault injector (what was injected, where)
};

enum class Severity : std::uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

const char* subsystem_name(Subsystem s);
const char* severity_name(Severity s);

/// Whether events are recorded (off until set_tracing(true)).
bool tracing();
void set_tracing(bool on);

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
  Subsystem subsys = Subsystem::Ident;
  Severity severity = Severity::Info;
  const char* name = nullptr;
  Field fields[kMaxFields];
  std::uint8_t n_fields = 0;
};

/// Builder for the emission sites:
///   obs::Event(Subsystem::Arq, Severity::Info, "arq.retry")
///       .f("attempt", attempts).f("seq", seq).emit();
/// Construction snapshots the switch; a disabled builder's .f()/.emit()
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
