// Multi-candidate complex correlator bank (CMAC = complex multiply-
// accumulate), the shared engine behind the ZigBee OQPSK despreader and
// the 802.11b CCK demapper.
//
// Both scalar oracles (oracle::Zigbee::detect_symbols and
// oracle::cck_demap, tests/differential/oracles.h) do the same thing:
// correlate one received segment against N candidate reference
// waveforms and pick the argmax of |correlation|.  The scalar shape —
// candidates outer, samples inner — walks complex pairs through
// std::conj and std::complex multiplies, which GCC lowers to __mulsc3
// calls and refuses to vectorize.
//
// The fast path interchanges the loops: samples outer, candidates
// inner, with the candidates stored *planar* (separate re/im arrays,
// contiguous across candidates at each sample index).  The inner loop
// is then a branch-free contiguous multiply-add over N independent
// accumulators, which auto-vectorizes cleanly.
//
// Why this is bit-exact, not just close (the whole point of the
// oracle discipline):
//   - Each candidate's accumulator still sees the *same sequential
//     operation order* over k as the scalar loop — vectorizing ACROSS
//     candidates never reassociates any single accumulation chain.
//   - The bank stores conj(ref) with the imaginary part negated up
//     front.  Float negation is exact, and
//         pr = s_re*b_re − s_im*b_im
//         pi = s_re*b_im + s_im*b_re
//     with b = conj(r) performs literally the same four multiplies and
//     two add/subs (same operands, same order) as the library's
//     complex multiply of seg[k] * conj(ref[k]) on finite values.
//   - best_match applies std::abs(Cf) (float hypot, then widened to
//     double) and a strict `>` in ascending candidate order — the
//     identical comparison the oracles run, so near-ties break the
//     same way.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/iq.h"

namespace ms::kernels {

class CmacBank {
 public:
  /// Largest bank best_match() supports (its accumulators live on the
  /// stack): the 64-codeword CCK bank at 11 Mbps.
  static constexpr std::size_t kMaxCandidates = 64;

  CmacBank() = default;

  /// Drop all candidates and size the bank: `n_candidates` (at most
  /// kMaxCandidates) references, each `length` complex samples.
  void reset(std::size_t n_candidates, std::size_t length);

  /// Install candidate `c` (stores conj(ref), planar).  `ref` must be
  /// exactly `length()` samples.
  void set_candidate(std::size_t c, std::span<const Cf> ref);

  std::size_t candidates() const { return n_candidates_; }
  std::size_t length() const { return length_; }

  /// Correlate `seg` against every candidate over the first
  /// min(seg.size(), length()) samples — the same effective window the
  /// scalar oracles use.  out_re/out_im receive the per-candidate
  /// complex correlations and must each hold candidates() floats.
  void correlate(std::span<const Cf> seg, std::span<float> out_re,
                 std::span<float> out_im) const;

  struct Best {
    std::size_t index = 0;  ///< argmax candidate
    Cf corr;                ///< its complex correlation
  };

  /// correlate() + argmax |corr| with strict `>` in candidate order —
  /// byte-for-byte the oracle's selection rule.
  Best best_match(std::span<const Cf> seg) const;

 private:
  std::size_t n_candidates_ = 0;
  std::size_t length_ = 0;
  // Planar conj(ref) banks, indexed [sample][candidate]:
  // re_[k * n_candidates_ + c] pairs with im_[k * n_candidates_ + c].
  std::vector<float> re_;
  std::vector<float> im_;
};

}  // namespace ms::kernels
