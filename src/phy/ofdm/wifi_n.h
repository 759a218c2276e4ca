// 802.11n (20 MHz, single stream) OFDM PHY.
//
// Implements the transmit chain the paper rides on at MCS 0–4 equivalents:
// scrambler → rate-1/2 BCC → interleaver → BPSK/QPSK/16-QAM mapping →
// 64-IFFT with pilots and cyclic prefix, behind an L-STF/L-LTF/HT-STF/
// HT-LTF preamble.  The receiver estimates the channel from the L-LTF and
// reverses the chain.  Native sample rate is 20 Msps.
#pragma once

#include <span>

#include "common/bits.h"
#include "dsp/iq.h"
#include "phy/constellation.h"
#include "phy/interleaver.h"

namespace ms {

struct WifiNConfig {
  Modulation modulation = Modulation::Bpsk;  ///< MCS0 default
  unsigned coding_num = 1;  ///< BCC rate numerator (1/2, 2/3, 3/4, 5/6)
  unsigned coding_den = 2;
  uint8_t scrambler_seed = 0x5d;
  /// The KernelPath vestige (phy/interleaver.h): selects nothing.
  KernelPath path{};

  /// Config for a standard MCS index (0..7).
  static WifiNConfig from_mcs(unsigned mcs_index);

  /// Data bits per OFDM symbol at this modulation + coding rate.
  unsigned data_bits_per_symbol() const;
};

/// Coded bits per OFDM symbol (N_CBPS).
unsigned wifi_n_coded_bits_per_symbol(Modulation m);

class WifiNPhy {
 public:
  explicit WifiNPhy(WifiNConfig cfg = {});

  static constexpr double kSampleRate = 20e6;
  const WifiNConfig& config() const { return cfg_; }

  /// Preamble: L-STF (160) + L-LTF (32 CP + 2×64) + L-SIG (80) +
  /// HT-SIG (160) + HT-STF (80) + 2 × HT-LTF (160) = 800 samples (40 µs).
  /// The SIG symbols carry fixed rate/length fields in this simulator, so
  /// the whole 40 µs is deterministic — the property §2.3.2 exploits to
  /// extend the 802.11n matching window.
  Iq preamble_waveform() const;
  static constexpr std::size_t kPreambleSamples = 800;

  /// Full frame: preamble + encoded payload symbols (SERVICE + payload +
  /// tail + pad, scrambled and convolutionally encoded).
  Iq modulate_frame(std::span<const uint8_t> payload_bytes) const;

  /// Payload-only waveform for overlay experiments: `coded_bits` are
  /// mapped straight onto OFDM data symbols (no preamble).  Size must be
  /// a multiple of N_CBPS.
  Iq modulate_coded_symbols(std::span<const uint8_t> coded_bits,
                            std::size_t first_symbol_index = 0) const;

  /// Encode payload bits through scrambler + BCC + interleaver, returning
  /// coded bits ready for modulate_coded_symbols (padded to symbols).
  Bits encode(std::span<const uint8_t> payload_bits) const;

  /// Per-symbol hard demapping of a payload-only waveform: returns the
  /// interleaved coded bits of each OFDM symbol (no Viterbi).  `channel`
  /// is the per-bin complex gain to equalize with (identity if empty).
  Bits demodulate_symbol_bits(std::span<const Cf> iq, std::size_t n_symbols,
                              std::span<const Cf> channel = {},
                              std::size_t first_symbol_index = 0) const;

  /// Full receive of a frame produced by modulate_frame: LTF channel
  /// estimation, equalization, demap, deinterleave, Viterbi, descramble.
  struct RxFrame {
    bool ok = false;
    Bytes payload;
  };
  RxFrame demodulate_frame(std::span<const Cf> iq,
                           std::size_t payload_bytes) const;

  /// Channel estimate (64 bins) from the two L-LTF periods in a received
  /// preamble (which must be frame-aligned).
  Iq estimate_channel(std::span<const Cf> preamble) const;

  std::size_t symbols_for_payload(std::size_t payload_bits) const;

 private:
  WifiNConfig cfg_;
};

}  // namespace ms
