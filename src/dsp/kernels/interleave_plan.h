// Cached 802.11 interleaver permutations.
//
// The reference interleaver (oracle::interleave_11n,
// tests/differential/oracles.h) recomputes the two-permutation
// destination index — four divides/modulos — for every coded bit of
// every OFDM symbol.  The permutation depends only on
// (n_cbps, n_bpsc), so the fast path computes it once per parameter
// pair and replays it as a gather: out[perm[k]] = in[k] (interleave)
// and out[k] = in[perm[k]] (deinterleave) are branch-free table walks
// the compiler can unroll and vectorize.
//
// Bit-exact trivially: a permutation table built from the reference's
// own index function applied in the same k order moves the same bytes
// to the same places.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ms::kernels {

class InterleavePlan {
 public:
  InterleavePlan(unsigned n_cbps, unsigned n_bpsc);

  unsigned n_cbps() const { return n_cbps_; }

  /// perm()[k] = destination index of coded bit k (both permutations).
  std::span<const std::uint32_t> perm() const { return perm_; }

  /// Interleave/deinterleave whole symbols: bits.size() must be a
  /// multiple of n_cbps, out.size() == bits.size().
  void interleave(std::span<const std::uint8_t> bits,
                  std::span<std::uint8_t> out) const;
  void deinterleave(std::span<const std::uint8_t> bits,
                    std::span<std::uint8_t> out) const;

 private:
  unsigned n_cbps_;
  std::vector<std::uint32_t> perm_;
};

/// Shared plan cache keyed by (n_cbps, n_bpsc); plans are immutable,
/// fetch once per packet and reuse.
const InterleavePlan& interleave_plan(unsigned n_cbps, unsigned n_bpsc);

}  // namespace ms::kernels
