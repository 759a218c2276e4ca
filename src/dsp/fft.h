// Planned radix-2 decimation-in-time FFT.
//
// 802.11n OFDM needs only 64-point transforms, but the implementation is a
// general power-of-two FFT so spectral analysis utilities can reuse it.
// Conventions: forward transforms are unnormalized, inverse transforms
// (FftPlan::inverse, ifft_inplace, ifft) scale by 1/N, so the inverse
// undoes the forward transform.
//
// FftPlan builds the twiddle tables and the bit-reversal swap list once
// per size; transforms then run over caller spans with open-coded
// finite-value complex arithmetic, and one plan serves every symbol of a
// packet.  Its output is bit-exact against the textbook transform that
// regenerates each twiddle with a `w *= wlen` complex-float recurrence
// (oracle::fft_inplace in tests/differential/oracles.h):
//   - That transform restarts w at (1,0) for every block of a stage, so
//     the twiddle at (stage, k) is block-independent; the tables here
//     are built by running the IDENTICAL `w *= wlen` float recurrence
//     once per stage — not by calling cos/sin per entry, which would
//     round differently.
//   - The butterfly multiply is expanded to the same four multiplies
//     and two add/subs the library multiply performs on finite values,
//     in the same order; u+v / u−v and the 1/N inverse scaling are
//     element-wise and identical.
//   - The bit-reversal loop emits the same swap set, applied in the
//     same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dsp/iq.h"

namespace ms {

class FftPlan {
 public:
  /// Build a plan for power-of-two size n >= 1.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place transforms over exactly size() samples.
  void forward(std::span<Cf> x) const;
  void inverse(std::span<Cf> x) const;  ///< includes the 1/N scaling

 private:
  void run(std::span<Cf> x, bool inv) const;

  std::size_t n_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  // Per-stage twiddle tables, stage s covering len = 2^(s+1) with
  // len/2 entries; forward and inverse kept separately so each is the
  // recurrence the textbook transform would have run.
  std::vector<std::vector<Cf>> fwd_;
  std::vector<std::vector<Cf>> inv_;
};

/// Shared plan cache keyed by size.  The lookup takes a mutex; the
/// returned plan is immutable and lives forever, so fetch it once per
/// packet (not per symbol) and reuse the reference.
const FftPlan& fft_plan(std::size_t n);

/// In-place forward FFT.  Requires a power-of-two length >= 1.
void fft_inplace(Iq& x);

/// Out-of-place inverse FFT (includes the 1/N normalization).
Iq ifft(std::span<const Cf> x);

/// True if n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace ms
