// Stand-alone receivers for a bare 802.11b or BLE payload: the PHY
// loopback, payload-size and differential tests decode with them
// (test-only: linked through ms_test_support, never by src/).  No
// program needs them, because each overlay codec decodes its own way
// from the same PHY calls: collapse_chips and symbol_frequencies.
#pragma once

#include <cstddef>
#include <span>

#include "common/bits.h"
#include "dsp/iq.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"

namespace ms {

/// Raw (unscrambled) 802.11b payload symbol demodulation of a
/// frame-aligned waveform: maps each symbol's chips back to air bits
/// without descrambling.  `init_ref` is the differential phase reference
/// preceding the first symbol (the modulator starts at 1+0j; mid-frame
/// demodulation passes the last despread symbol of the previous
/// segment).
Bits demodulate_air_bits(const WifiBPhy& phy, std::span<const Cf> iq,
                         std::size_t n_bits, Cf init_ref = Cf(1.0f, 0.0f));

/// BLE discriminator demodulation of raw air bits (frame-aligned input).
Bits demodulate_bits(const BlePhy& phy, std::span<const Cf> iq,
                     std::size_t n_bits);

}  // namespace ms
