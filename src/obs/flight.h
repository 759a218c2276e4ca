// Flight recorder: self-contained triage bundles for failed grid cells.
//
// When a cell throws or the watchdog quarantines it, the trial engine
// hands this module the cell's TelemetryShard.  The recorder serializes
// the shard's trace ring plus the cell's identity — (point, trial),
// config hash, and the forked-Rng coordinates that regenerate its
// random stream — into one `ms.flight.v1` JSON file under the
// --flight-out directory.  The bundle's last key is "repro": a
// copy-pasteable command line (built by the bench CLI, ending in
// `--only-cell P,T`) that re-executes exactly the failed cell.
//
// Bundles are a side channel: nothing here is reachable from --metrics-out / --trace-out or the manifest's
// deterministic section.
#pragma once

#include <cstdint>
#include <string>

namespace ms::obs {
class TelemetryShard;
}  // namespace ms::obs

namespace ms::obs::flight {

struct FlightConfig {
  std::string dir;  ///< bundle directory ("" = disarmed)
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;
  std::uint64_t trial_deadline_ms = 0;
  /// Repro command up to (not including) `--only-cell P,T`; built by
  /// the bench CLI from argv so the obs layer stays sim-agnostic.
  std::string repro_prefix;
};

/// Install the bundle directory + run identity.  "" dir disarms.
void arm(const FlightConfig& cfg);
void disarm();
bool armed();

/// Serialize one incident.  `reason` is a stable token
/// ("watchdog_quarantine" | "exception"), `detail` the exception text.
/// Returns the bundle path ("" when disarmed or the write failed —
/// recording an incident never throws, the original error matters more).
/// Thread-safe: cells fail concurrently.
std::string record_incident(const std::string& reason,
                            const std::string& detail, std::uint32_t point,
                            std::uint32_t trial, const TelemetryShard& shard);

/// Number of bundles written since arm() (tests).
std::uint64_t incidents_recorded();

}  // namespace ms::obs::flight
