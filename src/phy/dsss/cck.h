// Complementary Code Keying for 802.11b 5.5 and 11 Mbps.
//
// A CCK symbol is 8 complex chips
//   c = e^{jφ1} · ( e^{j(φ2+φ3+φ4)}, e^{j(φ3+φ4)}, e^{j(φ2+φ4)}, −e^{jφ4},
//                   e^{j(φ2+φ3)},   e^{jφ3},      −e^{jφ2},      1 )
// where φ1 is DQPSK-differential and φ2..φ4 encode the remaining data bits
// (2 data bits at 5.5 Mbps, 6 at 11 Mbps).
#pragma once

#include <span>

#include "common/bits.h"
#include "dsp/iq.h"

namespace ms {

/// Chips per CCK symbol.
inline constexpr std::size_t kCckChips = 8;

/// Build the 8-chip codeword for the given phases.
Iq cck_codeword(double phi1, double phi2, double phi3, double phi4);

/// Map the non-differential data bits of one symbol to (φ2, φ3, φ4).
/// 5.5 Mbps consumes 2 bits, 11 Mbps consumes 6.
void cck_data_phases(std::span<const uint8_t> bits, bool rate11,
                     double& phi2, double& phi3, double& phi4);

/// Recover the non-differential data bits from received chips by
/// minimum-distance search over all codewords; also returns the detected
/// φ1 (as the complex rotation of the best match) via `rot`.  Correlates
/// against a planar bank of every codeword, built once per rate.
Bits cck_demap(std::span<const Cf> chips, bool rate11, Cf& rot);

/// DQPSK phase increment for bit pair (b0, b1); `odd_symbol` adds the
/// standard's extra π on odd-numbered symbols.
double dqpsk_increment(uint8_t b0, uint8_t b1, bool odd_symbol);

/// Inverse of dqpsk_increment: quantize a measured phase increment to the
/// nearest DQPSK bit pair.
void dqpsk_decide(double delta_phase, bool odd_symbol, uint8_t& b0,
                  uint8_t& b1);

}  // namespace ms
