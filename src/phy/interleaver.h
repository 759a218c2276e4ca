// 802.11a/g/n block interleaver.
//
// Operates on one OFDM symbol's coded bits (N_CBPS).  The standard's two
// permutations spread adjacent coded bits across nonadjacent subcarriers;
// for the BPSK/QPSK cases used here the second permutation is identity,
// but it is implemented in full for 16-QAM correctness.  Both directions
// replay a permutation table cached per (N_CBPS, N_BPSC)
// (dsp/kernels/interleave_plan.h).
#pragma once

#include <span>

#include "common/bits.h"

namespace ms {

/// Left from the removed kernel-path switch: one value, selects nothing.
/// It stays only because perfbench/workloads.cpp:475 passes
/// WifiNConfig::path as deinterleave_11n's fourth argument, and
/// perfbench/ changes only together with the benchmark.  The next change
/// to perfbench/ drops that argument; then delete this type, that field
/// and that parameter.
struct KernelPath {};

/// Interleave one OFDM symbol.  n_cbps = coded bits per symbol,
/// n_bpsc = bits per subcarrier (1 BPSK, 2 QPSK, 4 16-QAM).
Bits interleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                    unsigned n_bpsc);

/// Inverse of interleave_11n.  The fourth parameter is the KernelPath
/// vestige above.
Bits deinterleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                      unsigned n_bpsc, KernelPath = {});

}  // namespace ms
