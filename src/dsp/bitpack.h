// Bit-packed ±1 vectors and XOR+popcount correlation kernels.
//
// The identification datapath the paper actually deploys (§2.3.1,
// Table 2) runs on 1-bit quantized envelopes: a sample is +1 or −1, and
// the correlation sum of products collapses to
//     Σ aᵢ·bᵢ = n − 2·popcount(a XOR b)
// — an XNOR array feeding a popcount adder tree, no multipliers.  This
// module is the software form of that circuit: ±1 vectors packed 64
// positions per uint64_t word, correlated word-at-a-time.  It is the
// measured fast path; `sign_correlation()` in dsp/correlate.h is the
// byte-per-position reference it must match bit-for-bit (the equivalence
// suite in tests/property/bitpack_property_test.cpp enforces this, tail
// words included).  See docs/PERF.md.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace ms::bitpack {

/// Number of 64-bit words needed to hold `bits` positions.
constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// Mask selecting the live bits of the final word of a `bits`-position
/// vector (all ones when the length is a multiple of 64).
constexpr std::uint64_t tail_mask(std::size_t bits) {
  return bits % 64 == 0 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (bits % 64)) - 1;
}

/// A ±1 vector packed one bit per position (bit = 1 ⇔ value = +1).
/// Padding bits of the final word are zero.
struct PackedVec {
  std::vector<std::uint64_t> words;
  std::size_t bits = 0;
};

/// Pack signs[i] > 0 into a PackedVec.
PackedVec pack_signs(std::span<const std::int8_t> signs);

/// Pack x[i] >= thr into `out` (exactly words_for(x.size()) words;
/// padding bits cleared).  `thr` is a double so callers can hand over
/// the exact DC threshold the reference quantizer computes.
void pack_threshold(std::span<const float> x, double thr,
                    std::span<std::uint64_t> out);

/// Sum of products Σ aᵢ·bᵢ of two packed ±1 vectors of `bits` positions:
/// bits − 2·popcount(a XOR b), with the final word masked so padding
/// never contributes.  Inline: this is the innermost operation of the
/// identification scoring loop (one word for the Fig 7 L_t = 60).
inline long packed_dot(std::span<const std::uint64_t> a,
                       std::span<const std::uint64_t> b, std::size_t bits) {
  const std::size_t n_words = words_for(bits);
  MS_CHECK(a.size() >= n_words && b.size() >= n_words);
  if (bits == 0) return 0;
  std::size_t disagreements = 0;
  for (std::size_t w = 0; w + 1 < n_words; ++w)
    disagreements += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  disagreements += static_cast<std::size_t>(
      std::popcount((a[n_words - 1] ^ b[n_words - 1]) & tail_mask(bits)));
  return static_cast<long>(bits) - 2 * static_cast<long>(disagreements);
}

/// Normalized sign correlation in [−1, 1]; 0 for empty input.  Bit-exact
/// against sign_correlation() on the unpacked vectors: both compute the
/// same integer sum of products and divide by the same length.
inline double packed_sign_correlation(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b,
                                      std::size_t bits) {
  if (bits == 0) return 0.0;
  return static_cast<double>(packed_dot(a, b, bits)) /
         static_cast<double>(bits);
}

/// Sliding packed correlation of a long ±1 stream against a template:
/// out[i] = correlation of stream positions [i, i + tmpl.bits) with the
/// template.  The window is rebuilt per offset with word-level funnel
/// shifts (the FPGA streams samples through a shift register; this
/// emulates it 64 positions at a time), so the inner loop is pure
/// XOR+popcount.  Empty when the stream is shorter than the template or
/// the template is empty.
std::vector<double> sliding_sign_correlation(const PackedVec& stream,
                                             const PackedVec& tmpl);

}  // namespace ms::bitpack
