// FNV-1a (64-bit) over a byte range.
//
// The one content hash of the library: waveform-cache keys, the run
// identity (obs::ledger::config_hash), the metrics digest in run
// manifests and the perfbench output digests all fold bytes through it.
// Changing the constants or the default seed changes every one of those
// values, so committed baselines (BENCH_*.json) would stop comparing.
// Header-only, so layers that do not link ms_common (obs) can use it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ms {

/// Chain calls by passing the previous result as `seed`.
inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t seed = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace ms
