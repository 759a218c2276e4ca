// Bluetooth Low Energy 1 Mbps PHY: GFSK (BT = 0.5, modulation index 0.5,
// f1 − f0 = 500 kHz), advertising-channel framing (preamble 0xAA, access
// address 0x8E89BED6, whitening, CRC-24), and a discriminator-based
// receiver.
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
  unsigned channel_index = 37;      ///< advertising channel (whitening seed)
};

class BlePhy {
 public:
  explicit BlePhy(BleConfig cfg = {});

  double sample_rate_hz() const { return 1e6 * cfg_.samples_per_symbol; }
  double frequency_deviation_hz() const {
    return cfg_.modulation_index * 1e6 / 2.0;
  }
  const BleConfig& config() const { return cfg_; }

  /// GFSK-modulate raw air bits (already whitened if applicable).
  Iq modulate_bits(std::span<const uint8_t> air_bits) const;

  /// Full advertising frame: preamble + access address + whitened
  /// (PDU header + payload + CRC-24).  `payload` is the PDU payload
  /// (≤ 37 bytes for legacy advertising).
  Iq modulate_frame(std::span<const uint8_t> payload) const;

  /// Discriminator demodulation of raw air bits (frame-aligned input).
  Bits demodulate_bits(std::span<const Cf> iq, std::size_t n_bits) const;

  /// Per-symbol mean instantaneous frequency (Hz) — the soft values the
  /// overlay decoder thresholds to separate Δf-shifted tag symbols.
  Samples symbol_frequencies(std::span<const Cf> iq,
                             std::size_t n_symbols) const;

  struct RxFrame {
    bool crc_ok = false;
    Bytes payload;
  };

  /// Demodulate a frame produced by modulate_frame (aligned at sample 0).
  RxFrame demodulate_frame(std::span<const Cf> iq,
                           std::size_t payload_bytes) const;

  /// Data-channel PDU (connection events): the access address and CRC
  /// preset come from the CONNECT_IND exchange.  LLID = 1 (continuation)
  /// header; whitening uses the configured channel index.
  Iq modulate_data_frame(std::uint32_t access_address,
                         std::span<const uint8_t> payload,
                         std::uint32_t crc_init) const;
  RxFrame demodulate_data_frame(std::span<const Cf> iq,
                                std::size_t payload_bytes,
                                std::uint32_t crc_init) const;

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
