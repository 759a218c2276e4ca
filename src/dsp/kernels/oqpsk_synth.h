// OQPSK half-sine waveform synthesis kernel for phy/zigbee (oracle:
// oracle::Zigbee::modulate_symbols in tests/differential/oracles.h).
//
// The reference modulator allocates two full-length branch buffers and
// an output Iq per call and accumulates every chip pulse with `+=`
// under a per-sample bounds check.  Because same-branch pulses tile
// the branch exactly — the half-sine spans two chip periods and
// consecutive same-branch chips start two chip periods apart — every
// covered sample is touched by exactly one pulse, so the accumulate is
// really a store.  The kernel zero-fills the caller's output span,
// writes each pulse once straight into the real (I) or imaginary (Q)
// part of its samples with no inner bounds check (only the final Q
// pulse can truncate), and then scales the whole span.
//
// Why it is bit-exact:
//   - Identical pulse table (same sin() evaluations), identical chip
//     signs from the same PN words.
//   - The store computes `0.0f + v*pulse[k]`, not `v*pulse[k]`: the
//     reference adds onto a zero-initialized buffer, and IEEE addition
//     turns a −0.0f product (v = −1, pulse[0] = +0) into +0.0f.  A raw
//     store would plant −0.0f where the oracle has +0.0f — invisible
//     to ==, fatal to the golden vectors' hexfloat serialization.
//   - Samples no pulse covers stay +0.0f via zero-fill, as in the
//     reference; the final pass applies the same 1/√2 scaling to each
//     real and imaginary part.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/iq.h"

namespace ms::kernels {

/// Synthesize the OQPSK waveform for 4-bit `symbols` (values 0..15)
/// into `out`, which must hold exactly
/// symbols.size() * 32 * spc + spc samples.  `pn_table` is the 16-entry
/// chip table (LSB = chip 0).  Bit-identical to the scalar modulator.
void oqpsk_synthesize(std::span<const std::uint8_t> symbols,
                      std::span<const std::uint32_t> pn_table, unsigned spc,
                      std::span<Cf> out);

}  // namespace ms::kernels
