// Cross-run regression reporter over ms.run.v2 manifests.
//
//   obs_report diff A.json B.json [--tolerance PCT]
//   obs_report det  A.json
//   obs_report show A.json
//
// `diff` compares a baseline manifest A against a candidate B and exits
// with a code CI can branch on:
//
//   0  identical — deterministic sections byte-equal AND equal wall_s
//      (same machine, same wall clock: effectively only crafted
//      fixtures)
//   4  within tolerance — deterministic sections equal; wall_s moved
//      but stayed inside --tolerance (default 10%)
//   8  regressed — deterministic sections differ (a determinism break:
//      different metrics digest or bench results) or wall_s rose by
//      more than the tolerance
//   2  usage / parse error / a manifest of another schema (an ms.run.v1
//      file included) / incomparable manifests (different program,
//      seed or trials)
//
// "wall_s" is cost: lower is better, so a faster candidate never
// regresses.
//
// `det` re-serializes the deterministic section canonically (sorted
// keys, ledger number formatting) — the byte-diff target the
// manifest-determinism ctest uses.  `show` prints a human summary.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "json_mini.h"

namespace {

using ms::tools::Json;
using ms::tools::JsonParser;

constexpr int kIdentical = 0;
constexpr int kUsage = 2;
constexpr int kWithinTolerance = 4;
constexpr int kRegressed = 8;

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

Json load_manifest(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) bad(std::string("cannot open '") + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  Json root = JsonParser(buf.str()).parse();
  if (root.kind != Json::Kind::Object) bad("top level must be an object");
  const Json& schema = require(root, "schema", Json::Kind::String,
                               "a string");
  if (schema.string != "ms.run.v2")
    bad("unknown schema \"" + schema.string + "\" (want ms.run.v2)");
  require(root, "deterministic", Json::Kind::Object, "an object");
  require(root, "nondeterministic", Json::Kind::Object, "an object");
  return root;
}

/// Canonical number rendering matching ledger::detail::json_number:
/// integral doubles print bare, everything else %.17g — so a re-parse +
/// re-serialize of a ledger-written value reproduces its bytes.
std::string fmt_number(const Json& v) {
  if (v.integral && std::abs(v.number) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(v.number));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v.number);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Canonical serialization: object keys come out sorted (the parse map
/// is sorted), arrays in order, numbers via fmt_number.  Two manifests
/// whose deterministic sections hold equal values serialize to equal
/// bytes regardless of their on-disk formatting.
void dump_canonical(const Json& v, std::string& out) {
  switch (v.kind) {
    case Json::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, child] : v.object) {
        if (!first) out += ", ";
        first = false;
        out += '"' + escape(k) + "\": ";
        dump_canonical(child, out);
      }
      out += '}';
      break;
    }
    case Json::Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ", ";
        dump_canonical(v.array[i], out);
      }
      out += ']';
      break;
    }
    case Json::Kind::String: out += '"' + escape(v.string) + '"'; break;
    case Json::Kind::Number: out += fmt_number(v); break;
    case Json::Kind::Bool: out += v.boolean ? "true" : "false"; break;
    case Json::Kind::Null: out += "null"; break;
  }
}

std::string canonical(const Json& v) {
  std::string out;
  dump_canonical(v, out);
  return out;
}

/// The identity fields two manifests must share to be comparable at
/// all: differing ones mean the manifests describe different sweeps,
/// which is an operator error, not a regression.
void check_comparable(const Json& da, const Json& db) {
  for (const char* key : {"program", "seed", "trials", "config_hash"}) {
    auto a = da.object.find(key), b = db.object.find(key);
    if (a == da.object.end() || b == db.object.end())
      bad(std::string("manifests lack identity key \"") + key + "\"");
    if (canonical(a->second) != canonical(b->second))
      bad(std::string("manifests are incomparable: \"") + key + "\" is " +
          canonical(a->second) + " vs " + canonical(b->second));
  }
}

int cmd_diff(int argc, char** argv) {
  double tolerance_pct = 10.0;
  if (argc == 6 && std::strcmp(argv[4], "--tolerance") == 0) {
    char* end = nullptr;
    tolerance_pct = std::strtod(argv[5], &end);
    if (!end || *end != '\0' || tolerance_pct < 0) {
      std::fprintf(stderr,
                   "obs_report: --tolerance expects a non-negative "
                   "percentage, got '%s'\n",
                   argv[5]);
      return kUsage;
    }
  } else if (argc != 4) {
    std::fprintf(stderr,
                 "usage: obs_report diff A.json B.json [--tolerance PCT]\n");
    return kUsage;
  }

  const Json a = load_manifest(argv[2]);
  const Json b = load_manifest(argv[3]);
  const Json& da = a.object.at("deterministic");
  const Json& db = b.object.at("deterministic");
  check_comparable(da, db);

  bool regressed = false;
  bool moved = false;

  // Determinism gate: any deterministic difference is a regression.
  if (canonical(da) != canonical(db)) {
    regressed = true;
    for (const auto& [k, va] : da.object) {
      auto it = db.object.find(k);
      if (it == db.object.end())
        std::printf("DETERMINISM: \"%s\" only in %s\n", k.c_str(), argv[2]);
      else if (canonical(va) != canonical(it->second))
        std::printf("DETERMINISM: \"%s\": %s -> %s\n", k.c_str(),
                    canonical(va).c_str(), canonical(it->second).c_str());
    }
    for (const auto& [k, vb] : db.object)
      if (!da.object.count(k))
        std::printf("DETERMINISM: \"%s\" only in %s\n", k.c_str(), argv[3]);
  }

  // Perf gate: wall_s, tolerance-banded; lower is better.
  const Json& na = a.object.at("nondeterministic");
  const Json& nb = b.object.at("nondeterministic");
  auto wa = na.object.find("wall_s"), wb = nb.object.find("wall_s");
  if (wa != na.object.end() && wb != nb.object.end() &&
      wa->second.number != wb->second.number) {
    moved = true;
    const double va = wa->second.number, vb = wb->second.number;
    const double base = std::abs(va);
    const double delta_pct = base > 0 ? (vb - va) / base * 100.0 : 100.0;
    const bool worse = delta_pct > tolerance_pct;
    std::printf("%s: \"wall_s\": %.17g -> %.17g (%+.2f%%)%s\n",
                worse ? "REGRESSED" : "perf", va, vb, delta_pct,
                worse ? "" : " within tolerance");
    if (worse) regressed = true;
  }

  if (regressed) {
    std::printf("verdict: REGRESSED\n");
    return kRegressed;
  }
  if (moved) {
    std::printf("verdict: within tolerance (%.1f%%)\n", tolerance_pct);
    return kWithinTolerance;
  }
  std::printf("verdict: identical\n");
  return kIdentical;
}

int cmd_det(const char* path) {
  const Json a = load_manifest(path);
  std::string out;
  dump_canonical(a.object.at("deterministic"), out);
  std::printf("%s\n", out.c_str());
  return 0;
}

int cmd_show(const char* path) {
  const Json a = load_manifest(path);
  const Json& d = a.object.at("deterministic");
  const Json& n = a.object.at("nondeterministic");
  auto str = [](const Json& o, const char* k) -> std::string {
    auto it = o.object.find(k);
    return it == o.object.end() ? std::string("?")
           : it->second.kind == Json::Kind::String
               ? it->second.string
               : canonical(it->second);
  };
  std::printf("manifest: %s\n", path);
  std::printf("  program:           %s\n", str(d, "program").c_str());
  std::printf("  config_hash:       %s\n", str(d, "config_hash").c_str());
  std::printf("  seed/trials:       %s / %s\n", str(d, "seed").c_str(),
              str(d, "trials").c_str());
  std::printf("  metrics_digest:    %s\n", str(d, "metrics_digest").c_str());
  std::printf("  git_sha:           %s\n", str(n, "git_sha").c_str());
  std::printf("  threads:           %s\n", str(n, "threads").c_str());
  std::printf("  wall_s:            %s\n", str(n, "wall_s").c_str());
  auto results = d.object.find("results");
  if (results != d.object.end() && !results->second.object.empty()) {
    std::printf("  results:\n");
    for (const auto& [key, v] : results->second.object)
      std::printf("    %-32s %s\n", key.c_str(), canonical(v).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "diff") == 0)
      return cmd_diff(argc, argv);
    if (argc == 3 && std::strcmp(argv[1], "det") == 0) return cmd_det(argv[2]);
    if (argc == 3 && std::strcmp(argv[1], "show") == 0)
      return cmd_show(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_report: %s\n", e.what());
    return kUsage;
  }
  std::fprintf(stderr,
               "usage: obs_report diff A.json B.json [--tolerance PCT]\n"
               "       obs_report det  A.json\n"
               "       obs_report show A.json\n"
               "exit codes (diff): 0 identical, 4 within tolerance, "
               "8 regressed, 2 usage/incomparable\n");
  return kUsage;
}
