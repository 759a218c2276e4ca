#include "obs/ledger.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/hash.h"
#include "obs/profile.h"
#include "obs/telemetry.h"

#ifndef MS_GIT_SHA
#define MS_GIT_SHA "unknown"
#endif

namespace ms::obs::ledger {

namespace {

struct Ledger {
  std::mutex m;
  RunInfo info;
  std::map<std::string, double> results;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

Ledger& ledger() {
  static Ledger l;
  return l;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void write_kv_block(std::ostream& out, const char* name,
                    const std::map<std::string, double>& kv,
                    const char* indent) {
  out << indent << "\"" << name << "\": {";
  bool first = true;
  for (const auto& [k, v] : kv) {
    out << (first ? "\n" : ",\n") << indent << "  \""
        << detail::json_escape(k) << "\": " << detail::json_number(v);
    first = false;
  }
  out << (first ? "" : std::string("\n") + indent) << "}";
}

/// The deterministic section body.  Keys are emitted in one fixed
/// order and the results map is name-sorted, so two runs of the same
/// config produce byte-identical sections regardless of the order the
/// bench recorded results in.
void write_deterministic_body(std::ostream& out, const Ledger& l,
                              const char* indent) {
  const std::string in2 = std::string(indent) + "  ";
  out << indent << "{\n";
  out << in2 << "\"program\": \"" << detail::json_escape(l.info.program)
      << "\",\n";
  out << in2 << "\"config_hash\": \"" << hex64(l.info.config_hash) << "\",\n";
  out << in2 << "\"seed\": " << l.info.seed << ",\n";
  out << in2 << "\"trials\": " << l.info.trials << ",\n";
  out << in2 << "\"metrics_digest\": \"" << hex64(metrics_digest())
      << "\",\n";
  write_kv_block(out, "results", l.results, in2.c_str());
  out << "\n" << indent << "}";
}

}  // namespace

void set_run_info(const RunInfo& info) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lk(l.m);
  l.info = info;
  l.start = std::chrono::steady_clock::now();
}

const RunInfo& run_info() { return ledger().info; }

void record_result(const std::string& key, double value) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lk(l.m);
  l.results[key] = value;
}

const std::map<std::string, double>& results() { return ledger().results; }

std::uint64_t config_hash(const std::string& program, std::uint64_t seed,
                          std::uint64_t trials) {
  std::uint64_t h = fnv1a(program.data(), program.size());
  h = fnv1a(&seed, sizeof(seed), h);
  return fnv1a(&trials, sizeof(trials), h);
}

std::uint64_t metrics_digest() {
  const std::string json = metrics_json_string();
  return fnv1a(json.data(), json.size());
}

std::string git_sha() {
  if (const char* env = std::getenv("MS_GIT_SHA"); env && *env) return env;
  return MS_GIT_SHA;
}

void write_deterministic_json(std::ostream& out) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lk(l.m);
  write_deterministic_body(out, l, "");
  out << "\n";
}

void write_manifest_json(std::ostream& out) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lk(l.m);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - l.start)
                            .count();
  out << "{\n  \"schema\": \"ms.run.v2\",\n";
  out << "  \"deterministic\":\n";
  write_deterministic_body(out, l, "  ");
  out << ",\n  \"nondeterministic\": {\n";
  out << "    \"git_sha\": \"" << detail::json_escape(git_sha()) << "\",\n";
  out << "    \"threads\": " << l.info.threads << ",\n";
  out << "    \"waveform_cache\": "
      << (l.info.waveform_cache ? "true" : "false") << ",\n";
  out << "    \"wall_s\": " << detail::json_number(wall_s) << ",\n";
  out << "    \"profile\": {";
  bool first = true;
  for (const ProfileStat& s : profile_snapshot()) {
    if (s.calls == 0) continue;
    out << (first ? "\n" : ",\n") << "      \""
        << detail::json_escape(s.name) << "\": {\"calls\": " << s.calls
        << ", \"total_ms\": "
        << detail::json_number(static_cast<double>(s.total_ns) / 1e6) << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n  }\n}\n";
}

void write_manifest_json_file(const std::string& path) {
  std::ofstream f(path);
  MS_CHECK_MSG(f.is_open(), "cannot open manifest output for write: " + path);
  write_manifest_json(f);
  MS_CHECK_MSG(f.good(), "manifest write failed: " + path);
}

void reset() {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lk(l.m);
  l.info = RunInfo{};
  l.results.clear();
  l.start = std::chrono::steady_clock::now();
}

}  // namespace ms::obs::ledger
