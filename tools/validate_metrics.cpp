// Standalone checker for the deterministic observability outputs,
// driven by the bench-smoke ctest label.  Two modes:
//
//   validate_metrics metrics.json          ms.metrics.v1 schema checks
//   validate_metrics --trace trace.jsonl   trace JSONL checks (one JSON
//                                          object per line: required
//                                          keys, known subsys/sev
//                                          tokens, non-negative
//                                          point/trial/t)
//
// Parses by hand via tools/json_mini.h (no third-party dependency) and
// validates the invariants the plotting scripts rely on.  Exits 0 when
// the file is well formed, 1 with a diagnostic naming the offending
// key/line otherwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "json_mini.h"

namespace {

using ms::tools::Json;
using ms::tools::JsonParser;

// ---- ms.metrics.v1 schema checks -------------------------------------

[[noreturn]] void bad(const std::string& why) {
  throw std::runtime_error(why);
}

const Json& require(const Json& obj, const char* key, Json::Kind kind,
                    const char* kind_name) {
  auto it = obj.object.find(key);
  if (it == obj.object.end()) bad(std::string("missing key \"") + key + "\"");
  if (it->second.kind != kind)
    bad(std::string("\"") + key + "\" must be " + kind_name);
  return it->second;
}

void check_counter(const std::string& name, const Json& v) {
  if (v.kind != Json::Kind::Number || !v.integral || v.number < 0)
    bad("counter \"" + name + "\" must be a non-negative integer");
}

void check_histogram(const std::string& name, const Json& h) {
  if (h.kind != Json::Kind::Object)
    bad("histogram \"" + name + "\" must be an object");
  const Json& bounds = require(h, "bounds", Json::Kind::Array, "an array");
  const Json& counts = require(h, "counts", Json::Kind::Array, "an array");
  require(h, "sum", Json::Kind::Number, "a number");
  const Json& count = require(h, "count", Json::Kind::Number, "a number");

  for (std::size_t i = 0; i < bounds.array.size(); ++i) {
    if (bounds.array[i].kind != Json::Kind::Number)
      bad("histogram \"" + name + "\" bounds[" + std::to_string(i) +
          "] is not a number");
    if (i > 0 && bounds.array[i].number <= bounds.array[i - 1].number)
      bad("histogram \"" + name + "\" bounds must ascend strictly");
  }
  if (counts.array.size() != bounds.array.size() + 1)
    bad("histogram \"" + name + "\" has " +
        std::to_string(counts.array.size()) + " counts for " +
        std::to_string(bounds.array.size()) +
        " bounds (want bounds + 1 overflow bucket)");
  double total = 0.0;
  for (std::size_t i = 0; i < counts.array.size(); ++i) {
    const Json& c = counts.array[i];
    if (c.kind != Json::Kind::Number || !c.integral || c.number < 0)
      bad("histogram \"" + name + "\" counts[" + std::to_string(i) +
          "] must be a non-negative integer");
    total += c.number;
  }
  if (total != count.number)
    bad("histogram \"" + name + "\" count " + std::to_string(count.number) +
        " does not equal the bucket sum " + std::to_string(total));
}

void validate_metrics(const Json& root) {
  if (root.kind != Json::Kind::Object) bad("top level must be an object");
  const Json& schema =
      require(root, "schema", Json::Kind::String, "a string");
  if (schema.string != "ms.metrics.v1")
    bad("unknown schema \"" + schema.string + "\" (want ms.metrics.v1)");

  const Json& counters =
      require(root, "counters", Json::Kind::Object, "an object");
  for (const auto& [name, v] : counters.object) check_counter(name, v);

  const Json& gauges =
      require(root, "gauges", Json::Kind::Object, "an object");
  for (const auto& [name, v] : gauges.object)
    if (v.kind != Json::Kind::Number)
      bad("gauge \"" + name + "\" must be a number");

  const Json& hists =
      require(root, "histograms", Json::Kind::Object, "an object");
  for (const auto& [name, v] : hists.object) check_histogram(name, v);

  check_counter("events_dropped",
                require(root, "events_dropped", Json::Kind::Number,
                        "a number"));
}

// ---- trace JSONL checks ----------------------------------------------

void check_nonneg_number(const Json& ev, const char* key) {
  const Json& v = require(ev, key, Json::Kind::Number, "a number");
  if (v.number < 0) bad(std::string("\"") + key + "\" must be non-negative");
}

void validate_trace_line(const std::string& line) {
  const Json ev = JsonParser(line).parse();
  if (ev.kind != Json::Kind::Object) bad("each line must be an object");
  check_nonneg_number(ev, "point");
  check_nonneg_number(ev, "trial");
  check_nonneg_number(ev, "t");
  // Token sets mirror src/obs/trace.cpp subsystem_name/severity_name.
  static const std::set<std::string> kSubsystems = {
      "ident", "overlay", "arq", "faults"};
  static const std::set<std::string> kSeverities = {"debug", "info", "warn",
                                                    "error"};
  const Json& subsys =
      require(ev, "subsys", Json::Kind::String, "a string");
  if (!kSubsystems.count(subsys.string))
    bad("unknown subsys token \"" + subsys.string + "\"");
  const Json& sev = require(ev, "sev", Json::Kind::String, "a string");
  if (!kSeverities.count(sev.string))
    bad("unknown sev token \"" + sev.string + "\"");
  const Json& name = require(ev, "event", Json::Kind::String, "a string");
  if (name.string.empty()) bad("\"event\" must be non-empty");
}

int validate_trace_file(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) {
    std::fprintf(stderr, "validate_metrics: cannot open '%s'\n", path);
    return 1;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t events = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      validate_trace_line(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "validate_metrics: %s:%zu: %s\n", path, lineno,
                   e.what());
      return 1;
    }
    ++events;
  }
  std::printf("validate_metrics: %s OK (%zu trace events)\n", path, events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--trace") == 0)
    return validate_trace_file(argv[2]);
  if (argc != 2 || std::strcmp(argv[1], "--trace") == 0) {
    std::fprintf(stderr, "usage: %s metrics.json\n       %s --trace trace.jsonl\n",
                 argv[0], argv[0]);
    return 2;
  }
  std::ifstream f(argv[1], std::ios::binary);
  if (!f.is_open()) {
    std::fprintf(stderr, "validate_metrics: cannot open '%s'\n", argv[1]);
    return 1;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  try {
    validate_metrics(JsonParser(buf.str()).parse());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "validate_metrics: %s: %s\n", argv[1], e.what());
    return 1;
  }
  std::printf("validate_metrics: %s OK\n", argv[1]);
  return 0;
}
