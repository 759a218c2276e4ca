// Flag parsing for the msbench experiment driver (bench/msbench.cpp).
//
// Every experiment accepts the same small vocabulary:
//   --threads N       worker threads for the trial engine, 1 to 256
//                     (omitted = all cores)
//   --trials N        override the experiment's default trial count
//   --out DIR         dump CSVs into DIR (created if missing)
//   --seed S          override the experiment's master seed
//   --metrics-out F   write the deterministic metrics registry to F (JSON)
//   --trace-out F     write structured trace events to F (JSONL); the
//                     only switch that records them (obs::set_tracing)
//   --waveform-cache on|off
//                     reuse synthesized identification waveforms across
//                     trials (default on; off re-synthesizes every trial —
//                     the bitwise oracle for the cached path)
//   --manifest-out F  write a ms.run.v2 run manifest to F (config hash,
//                     metrics digest + bench results in a deterministic
//                     section; git SHA, wall time, profile totals in
//                     a nondeterministic one) — see tools/obs_report
//   --help            print usage and exit 0
// An experiment with fixed thread counts (no trial engine), fixed trial
// counts, a fixed seed or no cached waveform declines --threads,
// --trials, --seed or --waveform-cache (CliAccepts).
// Anything else — an unknown or declined flag, a bad value, any
// positional argument — is an error: parse_cli reports it and
// parse_cli_or_exit prints the usage message and exits 2 instead of
// silently ignoring it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ms {

struct CliOptions {
  std::size_t threads = 0;    ///< 0 = ThreadPool::hardware_threads()
  std::size_t trials = 0;     ///< 0 = use the experiment's default
  std::uint64_t seed = 0;     ///< 0 = use the experiment's default
  std::string out_dir;        ///< empty = no CSV dump
  std::string metrics_out;    ///< empty = no metrics JSON dump
  std::string trace_out;      ///< empty = no trace JSONL dump
  bool waveform_cache = true; ///< reuse synthesized waveforms across trials
  std::string manifest_out;   ///< empty = no run manifest
  bool help = false;
};

/// Which of the four per-experiment flags the command takes.  A
/// declined flag is an error that names the command, never a value it
/// ignores.
struct CliAccepts {
  bool threads = true;
  bool trials = true;
  bool seed = true;
  bool waveform_cache = true;  ///< the command reads the WaveformCache
};

/// Parse argv[1 …] into opts; argv[0] names the command in errors.
/// Returns an error message on an unknown or declined flag, a
/// missing/invalid value, or a positional argument; nullopt on success.
std::optional<std::string> parse_cli(int argc, const char* const* argv,
                                     CliOptions& opts,
                                     CliAccepts accepts = {});

/// Usage text for the shared flag vocabulary, without the
/// per-experiment flags the command declines.
std::string cli_usage(const char* prog, CliAccepts accepts = {});

/// parse_cli wrapper for the msbench driver: on error prints the message
/// and usage to stderr and exits 2; on --help prints usage and exits 0.
/// Creates --out (and the parent directories of --metrics-out /
/// --trace-out / --manifest-out) if missing, arms tracing when
/// --trace-out is given, and records the run in the ledger as `program`
/// with the flags as given.
CliOptions parse_cli_or_exit(int argc, const char* const* argv,
                             const std::string& program,
                             CliAccepts accepts = {});

/// Run epilogue: dump the aggregated metrics registry / trace buffer /
/// run manifest to the files requested on the command line (no-ops when
/// the flags were absent) and print the per-stage profile table to
/// stderr.  Reports and returns false on I/O failure instead of
/// throwing.
bool finish_bench_output(const CliOptions& opts);

}  // namespace ms
