#include "sim/runner/cli.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <system_error>

#include "obs/ledger.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/runner/waveform_cache.h"

namespace ms {

namespace {

/// The most --threads accepts: the pool starts one OS thread per worker,
/// and no host this runs on has anywhere near this many cores.
constexpr std::uint64_t kMaxThreads = 256;

/// Parse a non-negative integer; returns false on garbage or overflow.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (~0ull - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// Create `dir` (and parents).  Returns an error message naming the
/// path that failed, or nullopt.
std::optional<std::string> ensure_dir(const std::string& dir) {
  if (dir.empty()) return std::nullopt;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    return "cannot create directory '" + dir + "': " + ec.message();
  return std::nullopt;
}

/// Create the parent directory of an output file path, if it has one.
std::optional<std::string> ensure_parent_dir(const std::string& file) {
  if (file.empty()) return std::nullopt;
  const std::filesystem::path parent =
      std::filesystem::path(file).parent_path();
  if (parent.empty()) return std::nullopt;
  return ensure_dir(parent.string());
}

}  // namespace

std::optional<std::string> parse_cli(int argc, const char* const* argv,
                                     CliOptions& opts, CliAccepts accepts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      (void)flag;
      return std::string(argv[++i]);
    };
    // Every bad value names the flag AND echoes the offending value —
    // "error: --trials expects a positive integer, got '12.5'" instead
    // of leaving the user to guess which of seven flags choked.
    auto bad_value = [](const char* flag, const std::optional<std::string>& v,
                        const char* expects) -> std::string {
      if (!v)
        return std::string(flag) + " is missing its value (expects " +
               expects + ")";
      return std::string(flag) + " expects " + expects + ", got '" + *v + "'";
    };
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--threads") {
      if (!accepts.threads)
        return std::string(argv[0]) +
               " does not take --threads: its thread counts are fixed";
      const auto v = value("--threads");
      std::uint64_t n = 0;
      // 0 threads cannot run anything; "use all cores" is the default
      // you get by not passing the flag at all.
      if (!v || !parse_u64(*v, n) || n == 0 || n > kMaxThreads)
        return bad_value("--threads", v,
                         "a positive integer up to 256 (omit the flag for "
                         "all cores)");
      opts.threads = static_cast<std::size_t>(n);
    } else if (arg == "--trials") {
      if (!accepts.trials)
        return std::string(argv[0]) +
               " does not take --trials: its trial counts are fixed";
      const auto v = value("--trials");
      std::uint64_t n = 0;
      if (!v || !parse_u64(*v, n) || n == 0)
        return bad_value("--trials", v, "a positive integer");
      opts.trials = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      if (!accepts.seed)
        return std::string(argv[0]) +
               " does not take --seed: its seeds are fixed";
      const auto v = value("--seed");
      std::uint64_t n = 0;
      if (!v || !parse_u64(*v, n))
        return bad_value("--seed", v, "a non-negative integer");
      opts.seed = n;
    } else if (arg == "--out") {
      const auto v = value("--out");
      if (!v) return bad_value("--out", v, "a directory");
      opts.out_dir = *v;
    } else if (arg == "--metrics-out") {
      const auto v = value("--metrics-out");
      if (!v) return bad_value("--metrics-out", v, "a file path");
      opts.metrics_out = *v;
    } else if (arg == "--trace-out") {
      const auto v = value("--trace-out");
      if (!v) return bad_value("--trace-out", v, "a file path");
      opts.trace_out = *v;
    } else if (arg == "--waveform-cache") {
      if (!accepts.waveform_cache)
        return std::string(argv[0]) +
               " does not take --waveform-cache: it caches no waveforms";
      const auto v = value("--waveform-cache");
      if (!v || (*v != "on" && *v != "off"))
        return bad_value("--waveform-cache", v, "'on' or 'off'");
      opts.waveform_cache = (*v == "on");
    } else if (arg == "--manifest-out") {
      const auto v = value("--manifest-out");
      if (!v) return bad_value("--manifest-out", v, "a file path");
      opts.manifest_out = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      return "unknown flag: " + arg;
    } else {
      return "unexpected argument: " + arg;
    }
  }
  return std::nullopt;
}

std::string cli_usage(const char* prog, CliAccepts accepts) {
  std::string u = "usage: ";
  u += prog;
  if (accepts.threads) u += " [--threads N]";
  if (accepts.trials) u += " [--trials N]";
  if (accepts.seed) u += " [--seed S]";
  u += " [--out DIR]\n       [--metrics-out FILE] [--trace-out FILE]";
  if (accepts.waveform_cache) u += " [--waveform-cache on|off]";
  u += "\n       [--manifest-out FILE]\n";
  if (accepts.threads)
    u +=
        "  --threads N        trial-engine worker threads, 1 to 256 (default:\n"
        "                     all cores; experiments with fixed thread counts\n"
        "                     reject it)\n";
  if (accepts.trials)
    u +=
        "  --trials N         override the default trial count (experiments\n"
        "                     with fixed trial counts reject it)\n";
  if (accepts.seed)
    u +=
        "  --seed S           override the default master seed (experiments\n"
        "                     with fixed seeds reject it)\n";
  u +=
      "  --out DIR          dump CSVs into DIR (created if missing)\n"
      "  --metrics-out FILE write the aggregated metrics registry as JSON\n"
      "  --trace-out FILE   write structured trace events as JSONL (every\n"
      "                     event of every subsystem)\n";
  if (accepts.waveform_cache)
    u +=
        "  --waveform-cache on|off\n"
        "                     reuse synthesized waveforms across trials\n"
        "                     (default on; results are bit-identical either\n"
        "                     way, off only trades speed for nothing;\n"
        "                     experiments that cache no waveforms reject it)\n";
  u +=
      "  --manifest-out FILE\n"
      "                     write a ms.run.v2 run manifest: deterministic\n"
      "                     section (config hash, metrics digest, bench\n"
      "                     results) + nondeterministic section (git SHA,\n"
      "                     wall time, profile totals); compare runs with\n"
      "                     obs_report diff\n"
      "  --help             show this message\n";
  return u;
}

CliOptions parse_cli_or_exit(int argc, const char* const* argv,
                             const std::string& program, CliAccepts accepts) {
  CliOptions opts;
  auto err = parse_cli(argc, argv, opts, accepts);
  if (err) {
    std::fprintf(stderr, "error: %s\n%s", err->c_str(),
                 cli_usage(argv[0], accepts).c_str());
    std::exit(2);
  }
  if (opts.help) {
    std::fprintf(stdout, "%s", cli_usage(argv[0], accepts).c_str());
    std::exit(0);
  }
  if (!(err = ensure_dir(opts.out_dir)) &&
      !(err = ensure_parent_dir(opts.metrics_out)) &&
      !(err = ensure_parent_dir(opts.trace_out)))
    err = ensure_parent_dir(opts.manifest_out);
  if (err) {
    std::fprintf(stderr, "error: %s\n", err->c_str());
    std::exit(2);
  }
  // Events are recorded only when a trace file will be written.
  obs::set_tracing(!opts.trace_out.empty());
  WaveformCache::instance().set_reuse_enabled(opts.waveform_cache);
  // The run identity covers only the knobs that change WHAT is computed
  // (obs/ledger.h).
  obs::ledger::RunInfo info;
  info.program = program;
  info.config_hash =
      obs::ledger::config_hash(info.program, opts.seed, opts.trials);
  info.seed = opts.seed;
  info.trials = opts.trials;
  info.threads = opts.threads;
  info.waveform_cache = opts.waveform_cache;
  obs::ledger::set_run_info(info);
  return opts;
}

bool finish_bench_output(const CliOptions& opts) {
  bool ok = true;
  if (!opts.metrics_out.empty()) {
    try {
      obs::write_metrics_json_file(opts.metrics_out);
      std::fprintf(stderr, "metrics: %s\n", opts.metrics_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      ok = false;
    }
  }
  if (!opts.trace_out.empty()) {
    try {
      obs::write_trace_jsonl_file(opts.trace_out);
      std::fprintf(stderr, "trace: %s\n", opts.trace_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      ok = false;
    }
  }
  if (!opts.manifest_out.empty()) {
    try {
      obs::ledger::write_manifest_json_file(opts.manifest_out);
      std::fprintf(stderr, "manifest: %s\n", opts.manifest_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      ok = false;
    }
  }
  obs::print_profile_table(stderr);
  return ok;
}

}  // namespace ms
