// GFSK discriminator demod kernel for phy/ble (oracle: oracle::Ble in
// tests/differential/oracles.h).
//
// The reference chain runs dsp/mixer's discriminate() over the ENTIRE
// trace — one complex multiply plus one atan2 per sample, materialized
// into a full-length Samples buffer — and then averages only the middle
// half of each symbol, discarding every other discriminator output it
// just paid for.  The fast path fuses the two loops and evaluates the
// discriminator only at the indices the average actually consumes
// (half of them), with no intermediate allocation.
//
// Why it is bit-exact:
//   - The per-index value is produced by the identical expression:
//     the phase-difference product is the same four multiplies/two
//     add-subs as the library complex multiply on finite values, the
//     angle comes from the same std::arg(Cf) call, and the
//     float(arg * scale) rounding (scale = fs/2π in double) matches
//     discriminate() exactly.
//   - Each per-symbol average accumulates the same float values, in
//     the same index order, into the same double accumulator, with the
//     same n-count division and empty-window fallback — including the
//     reference's quirky clamping at the end of the trace.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/iq.h"

namespace ms::kernels {

/// Per-symbol mean instantaneous frequency (Hz): out.size() symbols of
/// `sps` samples each, averaging the middle half of every symbol.
/// Bit-identical to discriminate() + the oracle's middle-half average.
void gfsk_symbol_frequencies(std::span<const Cf> iq, double fs_hz,
                             unsigned sps, std::span<float> out);

}  // namespace ms::kernels
