// Flag parsing shared by the experiment/bench CLIs.
//
// Every ported bench accepts the same small vocabulary:
//   --threads N       worker threads for the trial engine (0 = all cores)
//   --trials N        override the bench's default trial count
//   --out DIR         dump CSVs into DIR (created if missing)
//   --seed S          override the bench's master seed
//   --metrics-out F   write the deterministic metrics registry to F (JSON)
//   --trace-out F     write structured trace events to F (JSONL); enables
//                     all trace subsystems unless MS_TRACE narrows them
//   --waveform-cache on|off
//                     reuse synthesized waveforms across trials (default
//                     on; off re-synthesizes every trial — the bitwise
//                     oracle for the cached path)
//   --manifest-out F  write a ms.run.v1 run manifest to F (config hash,
//                     metrics digest + bench results in a deterministic
//                     section; git SHA, wall timings, profile totals in
//                     a nondeterministic one) — see tools/obs_report
//   --help            print usage and exit 0
// plus, for backward compatibility with the original benches, a single
// bare positional argument which is treated as --out.  Anything else is
// an error: parse_cli reports it and parse_cli_or_exit prints the usage
// message and exits nonzero instead of silently ignoring the flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ms {

struct CliOptions {
  std::size_t threads = 0;    ///< 0 = ThreadPool::hardware_threads()
  std::size_t trials = 0;     ///< 0 = use the bench's default
  std::uint64_t seed = 0;     ///< 0 = use the bench's default
  std::string out_dir;        ///< empty = no CSV dump
  std::string metrics_out;    ///< empty = no metrics JSON dump
  std::string trace_out;      ///< empty = no trace JSONL dump
  bool waveform_cache = true; ///< reuse synthesized waveforms across trials
  std::string manifest_out;   ///< empty = no run manifest
  bool help = false;
};

/// Parse argv into opts.  Returns an error message on an unknown flag,
/// a missing/invalid value, or a second positional; nullopt on success.
std::optional<std::string> parse_cli(int argc, const char* const* argv,
                                     CliOptions& opts);

/// Usage text for the shared flag vocabulary.
std::string cli_usage(const char* prog);

/// parse_cli wrapper for bench main()s: on error prints the message and
/// usage to stderr and exits 2; on --help prints usage and exits 0.
/// Creates --out (and the parent directories of --metrics-out /
/// --trace-out) if missing, and arms tracing when --trace-out is given.
CliOptions parse_cli_or_exit(int argc, const char* const* argv);

/// Bench epilogue: dump the aggregated metrics registry / trace buffer /
/// run manifest to the files requested on the command line (no-ops when
/// the flags were absent) and print the per-stage profile table to
/// stderr.  Reports and returns false on I/O failure instead of
/// throwing.
bool finish_bench_output(const CliOptions& opts);

}  // namespace ms
