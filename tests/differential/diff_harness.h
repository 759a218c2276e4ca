// Shared harness for the fast-vs-reference differential suites.
//
// Every kernel in src/dsp/kernels/ is the one production path; the
// scalar code it replaced is its oracle, in the test-only
// ms_test_oracles library (oracles.h).  These helpers drive randomized
// payloads/SNRs/configs through production and oracle and fail on the
// FIRST divergent sample or bit, with enough context (sweep iteration,
// element index, hexfloat bit patterns) to replay the exact case.
//
// Comparison is bitwise, not approximate: the kernels promise bit
// identity, so EXPECT_FLOAT_EQ-style tolerance would hide exactly the
// class of bug (reassociated accumulation, −0.0 flips, near-tie argmax
// reversals) this suite exists to catch.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/rng.h"
#include "dsp/iq.h"

namespace ms::difftest {

/// Master seed for every differential suite: sweeps are fully
/// deterministic, so a failure log identifies a reproducible case.
inline constexpr std::uint64_t kSeed = 0xd1ffe7e57ull;

inline std::string fmt_float_bits(float v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
}

/// Bitwise span comparison; reports and stops at the first divergence.
/// `what` names the kernel pair, `ctx` the sweep iteration/config.
inline void expect_same_samples(std::span<const Cf> fast,
                                std::span<const Cf> ref,
                                const std::string& what,
                                const std::string& ctx) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " size mismatch (" << ctx
                                     << ")";
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (std::memcmp(&fast[i], &ref[i], sizeof(Cf)) != 0) {
      ADD_FAILURE() << what << " diverges at sample " << i << " (" << ctx
                    << "): fast=(" << fmt_float_bits(fast[i].real()) << ", "
                    << fmt_float_bits(fast[i].imag()) << ") ref=("
                    << fmt_float_bits(ref[i].real()) << ", "
                    << fmt_float_bits(ref[i].imag()) << ")";
      return;  // first divergence only — the rest is usually noise
    }
  }
}

inline void expect_same_floats(std::span<const float> fast,
                               std::span<const float> ref,
                               const std::string& what,
                               const std::string& ctx) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " size mismatch (" << ctx
                                     << ")";
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (std::memcmp(&fast[i], &ref[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << " diverges at index " << i << " (" << ctx
                    << "): fast=" << fmt_float_bits(fast[i])
                    << " ref=" << fmt_float_bits(ref[i]);
      return;
    }
  }
}

inline void expect_same_doubles(std::span<const double> fast,
                                std::span<const double> ref,
                                const std::string& what,
                                const std::string& ctx) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " size mismatch (" << ctx
                                     << ")";
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (std::memcmp(&fast[i], &ref[i], sizeof(double)) != 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "fast=%a ref=%a", fast[i], ref[i]);
      ADD_FAILURE() << what << " diverges at index " << i << " (" << ctx
                    << "): " << buf;
      return;
    }
  }
}

inline void expect_same_bits(std::span<const std::uint8_t> fast,
                             std::span<const std::uint8_t> ref,
                             const std::string& what,
                             const std::string& ctx) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " size mismatch (" << ctx
                                     << ")";
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (fast[i] != ref[i]) {
      ADD_FAILURE() << what << " diverges at bit " << i << " (" << ctx
                    << "): fast=" << static_cast<int>(fast[i])
                    << " ref=" << static_cast<int>(ref[i]);
      return;
    }
  }
}

/// Random payload of 1..max_bytes bytes.
inline Bytes random_payload(Rng& rng, std::size_t max_bytes) {
  return rng.bytes(1 + rng.uniform_int(max_bytes));
}

/// Clean waveform through an AWGN channel at a random SNR in
/// [lo_db, hi_db) — the differential sweeps exercise the kernels on
/// degraded inputs, where argmax near-ties actually occur.
inline Iq noisy(std::span<const Cf> clean, Rng& rng, double lo_db = -2.0,
                double hi_db = 30.0) {
  Rng noise_rng(rng());  // sub-stream so config draws stay aligned
  return add_awgn(clean, rng.uniform(lo_db, hi_db), noise_rng);
}

/// Context string helper: "iter=3 snr=12.5 sps=8".
template <typename... Args>
std::string ctx(const char* fmt, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace ms::difftest
