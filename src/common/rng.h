// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator (AWGN, payload generation,
// packet schedules, Monte-Carlo sweeps) draws from ms::Rng so that whole
// experiments are reproducible from a single seed.  The engine is
// xoshiro256**, which is small, fast, and high quality; it is seeded via
// splitmix64 so that nearby integer seeds produce uncorrelated streams.
// The drawn values are the contract, not the calls: normals() returns
// in one batch the very doubles that successive normal() calls would,
// and tests/golden/channel_noise_stream.txt pins them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace ms {

/// xoshiro256** engine with convenience draws for the simulator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Raw 64-bit draw (UniformRandomBitGenerator interface).  It is
  /// inline, as are uniform() and chance(): the tag link layer draws once
  /// per coded bit and 32 times per sensed slot.
  std::uint64_t operator()() { return next(s_); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1)
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Standard normal draw (Marsaglia polar method, cached spare).
  double normal();
  /// Fills `out` with exactly what out.size() successive normal() calls
  /// would return, and leaves the generator and its spare as they would.
  /// It accepts polar candidates in blocks without a branch and takes
  /// their scale in two-lane passes; the channel noise draws every
  /// identification trace through it (docs/PERF.md §8).
  void normals(std::span<double> out);
  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli draw with probability p of returning true.
  bool chance(double p) { return uniform() < p; }
  /// n independent fair bits.
  Bits bits(std::size_t n);
  /// n independent uniform bytes.
  Bytes bytes(std::size_t n);

  /// Counter-based stream derivation for parallel sweeps: the child seed
  /// is a hash of (construction seed, point, trial), so the stream for a
  /// given grid cell depends only on those three numbers — never on how
  /// many sibling streams were forked, in what order, or from which
  /// thread.  Does NOT advance this generator's state.
  Rng fork(std::uint64_t point, std::uint64_t trial) const;

  /// The seed this generator was constructed with (identifies the
  /// master stream a forked child derives from).
  std::uint64_t seed() const { return seed_; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// One xoshiro256** step of the state `s`; normals() runs it on a copy
  /// held in locals.
  static std::uint64_t next(std::uint64_t (&s)[4]) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  std::uint64_t seed_ = 0;
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ms
