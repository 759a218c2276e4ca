// Planned radix-2 FFT: precomputed twiddles + bit-reversal, span-based
// and batchable, bit-exact against dsp/fft.
//
// The reference transform (dsp/fft.cpp) pays three costs per call: it
// regenerates every twiddle with a `w *= wlen` complex-multiply
// recurrence, each of those multiplies (and every butterfly multiply)
// goes through the library's std::complex operator* — a __mulsc3 call
// at -O2 — and the out-of-place wrappers allocate a fresh Iq.  For
// 802.11n that is per-symbol work repeated for every one of thousands
// of 64-point transforms per trial.
//
// FftPlan hoists all of it: twiddle tables and the bit-reversal swap
// list are built once per size, transforms run over caller spans with
// open-coded finite-value complex arithmetic, and one plan serves every
// symbol of a packet.
//
// Why it is bit-exact:
//   - The reference restarts w at (1,0) for every block of a stage, so
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
#include <span>
#include <vector>

#include "dsp/iq.h"

namespace ms::kernels {

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
  // recurrence the reference would have run.
  std::vector<std::vector<Cf>> fwd_;
  std::vector<std::vector<Cf>> inv_;
};

/// Shared plan cache keyed by size.  The lookup takes a mutex; the
/// returned plan is immutable and lives forever, so fetch it once per
/// packet (not per symbol) and reuse the reference.
const FftPlan& fft_plan(std::size_t n);

}  // namespace ms::kernels
