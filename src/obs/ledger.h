// Run ledger: the per-run manifest every bench can emit (ms.run.v2).
//
// A manifest is the unit of cross-run observability: one JSON file per
// bench invocation, split into two sections with different contracts.
//
//  - `deterministic` is a pure function of (program, seed, trials):
//    the run's config hash, a 64-bit digest of the
//    aggregated metrics JSON, and the key results the bench chose
//    to record (accuracies, ranges, gate outcomes).  It must be
//    byte-identical at any --threads / --waveform-cache setting — the
//    manifest-determinism ctest diffs it across thread counts, and
//    `obs_report diff` treats any difference as a regression.
//  - `nondeterministic` holds everything wall-clock- or
//    machine-shaped: git SHA, thread count, the cache flag, total
//    wall seconds and the per-stage profile totals.  `obs_report diff`
//    gates the wall seconds with a percentage tolerance instead of
//    equality.
//
// The split mirrors the repo-wide quarantine rule (docs/OBSERVABILITY.md):
// nothing nondeterministic is reachable from the deterministic section,
// so manifests from different machines/commits diff cleanly on
// correctness and tolerantly on speed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace ms::obs::ledger {

/// The run identity: FNV-1a over (program, seed, trials), the knobs
/// that change WHAT a run computes.  Threads and the waveform cache are
/// left out on purpose — results are invariant to them, so runs that
/// differ only there share an identity and `obs_report diff` compares
/// them.  The committed baseline BENCH_seed.json pins its value.
std::uint64_t config_hash(const std::string& program, std::uint64_t seed,
                          std::uint64_t trials);

/// Identity + knobs of the current run, filled by the shared bench CLI
/// (parse_cli_or_exit).  config_hash is config_hash(program, seed,
/// trials) above.
struct RunInfo {
  std::string program;
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;    ///< 0 = the bench's default seed
  std::uint64_t trials = 0;  ///< 0 = the bench's default trial count
  std::size_t threads = 0;  ///< 0 = all cores
  bool waveform_cache = true;
};

/// Install the run identity and start the wall clock (idempotent per
/// process in practice; the last call wins).
void set_run_info(const RunInfo& info);
const RunInfo& run_info();

/// Record one deterministic bench result (e.g. "fig7.ordered_avg").
/// Values land in the manifest's deterministic section, so they MUST be
/// thread-count-invariant — record figures, never wall time.
void record_result(const std::string& key, double value);

/// All results recorded so far (name-sorted; tests + writer).
const std::map<std::string, double>& results();

/// FNV-1a64 digest of the current aggregated metrics JSON — the single
/// number two runs compare to claim telemetry equality.
std::uint64_t metrics_digest();

/// Git SHA baked at configure time (MS_GIT_SHA compile definition),
/// overridable at runtime via the MS_GIT_SHA environment variable;
/// "unknown" when neither is available.
std::string git_sha();

/// Render the deterministic section only, canonically (the byte-diff
/// target for the manifest-determinism gate).
void write_deterministic_json(std::ostream& out);

/// Render the full ms.run.v2 manifest.  Wall seconds are measured from
/// the set_run_info call.
void write_manifest_json(std::ostream& out);
void write_manifest_json_file(const std::string& path);

/// Drop recorded results and the run info (test isolation).
void reset();

}  // namespace ms::obs::ledger
