// Shared formatting helpers for the experiment-reproduction benches.
// Every bench prints the rows/series of one table or figure from the
// paper, alongside the paper's reported values where applicable.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <string>

#include "obs/ledger.h"

namespace ms::bench {

/// Record one deterministic key figure (accuracy, range, gate outcome)
/// into the run ledger — it lands in the manifest's deterministic
/// "results" section, so it MUST be thread-count-invariant.
inline void record_result(const char* key, double value) {
  obs::ledger::record_result(key, value);
}

inline void title(const char* id, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("  %s\n", text); }

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// RFC 4180 CSV field escaping: a field containing a comma, double
/// quote, CR, or LF is wrapped in double quotes with embedded quotes
/// doubled; anything else passes through unchanged.
inline std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace ms::bench
