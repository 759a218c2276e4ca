// Bluetooth Low Energy 1 Mbps PHY: GFSK (BT = 0.5, modulation index 0.5,
// f1 − f0 = 500 kHz) over raw air bits, the advertising preamble (0xAA
// and access address 0x8E89BED6), and the per-symbol discriminator
// frequencies the overlay decoder reads.  The paper's receivers hand
// over raw PHY bits, so there is no PDU framing, whitening or CRC-24
// here.
#pragma once

#include <cstdint>
#include <span>

#include "common/bits.h"
#include "dsp/iq.h"

namespace ms {

inline constexpr std::uint32_t kBleAdvAccessAddress = 0x8e89bed6;

struct BleConfig {
  unsigned samples_per_symbol = 8;  ///< 1 Msym/s × 8 = 8 Msps baseband
  double bt = 0.5;                  ///< Gaussian bandwidth-time product
  double modulation_index = 0.5;    ///< h; deviation = h/2 × symbol rate
};

class BlePhy {
 public:
  explicit BlePhy(BleConfig cfg = {});

  double sample_rate_hz() const { return 1e6 * cfg_.samples_per_symbol; }
  double frequency_deviation_hz() const {
    return cfg_.modulation_index * 1e6 / 2.0;
  }
  const BleConfig& config() const { return cfg_; }

  /// GFSK-modulate raw air bits.
  Iq modulate_bits(std::span<const uint8_t> air_bits) const;

  /// Per-symbol mean instantaneous frequency (Hz) — the soft values the
  /// overlay decoder thresholds to separate Δf-shifted tag symbols.
  Samples symbol_frequencies(std::span<const Cf> iq,
                             std::size_t n_symbols) const;

  /// Preamble + access address waveform (identification templates).  The
  /// access address is included because §2.3.2 extends the BLE matching
  /// window over the constant advertising address.
  Iq preamble_waveform() const;

  /// Air bits of preamble + access address (40 bits).
  Bits preamble_bits() const;

 private:
  BleConfig cfg_;
  std::vector<float> gauss_taps_;
};

}  // namespace ms
