// 802.11b PHY: long-preamble PLCP framing, DSSS-DBPSK (1 Mbps),
// DSSS-DQPSK (2 Mbps), and CCK (5.5 / 11 Mbps) modulation, with a
// frame-aligned demodulator.
//
// The demodulator assumes the simulator delivers the waveform aligned to
// the frame start (the experiment engine controls timing); it performs
// despreading, differential detection, descrambling, and PLCP header
// parsing, but not clock recovery.
#pragma once

#include <span>

#include "common/bits.h"
#include "dsp/iq.h"

namespace ms {

enum class WifiBRate { Dbpsk1M, Dqpsk2M, Cck5_5M, Cck11M };

/// Payload bits carried per DSSS/CCK symbol at the given rate.
unsigned wifi_b_bits_per_symbol(WifiBRate rate);

/// Chips per symbol: 11 (Barker) or 8 (CCK).
unsigned wifi_b_chips_per_symbol(WifiBRate rate);

struct WifiBConfig {
  WifiBRate rate = WifiBRate::Dbpsk1M;
  unsigned samples_per_chip = 2;  ///< 11 Mcps × 2 = 22 Msps baseband
  uint8_t scrambler_seed = 0x6c;  ///< long-preamble seed per the standard
  /// Short PLCP preamble (the paper's footnote 1: 72 µs instead of
  /// 144 µs): 56-bit sync of scrambled zeros + SFD, header at 2 Mbps
  /// DQPSK, seed 0x1B.
  bool short_preamble = false;
};

class WifiBPhy {
 public:
  explicit WifiBPhy(WifiBConfig cfg = {});

  double sample_rate_hz() const { return 11e6 * cfg_.samples_per_chip; }
  std::size_t samples_per_symbol() const {
    return wifi_b_chips_per_symbol(cfg_.rate) * cfg_.samples_per_chip;
  }
  const WifiBConfig& config() const { return cfg_; }

  /// Synthesize a complete frame: 144-bit long preamble (128 scrambled 1s
  /// + SFD), 48-bit PLCP header at 1 Mbps DBPSK, then the scrambled
  /// payload at the configured rate.
  Iq modulate_frame(std::span<const uint8_t> payload_bytes) const;

  /// Payload-only waveform (scrambled, symbol-aligned, differential
  /// reference phase 0) — the unit the overlay-modulation experiments
  /// operate on.  `payload_bits` need not be byte-aligned but must be a
  /// multiple of bits-per-symbol.
  Iq modulate_payload(std::span<const uint8_t> payload_bits) const;

  /// Inverse of modulate_payload for a frame-aligned waveform.
  Bits demodulate_payload(std::span<const Cf> iq, std::size_t n_bits) const;

  /// Raw (unscrambled) payload symbol demodulation: maps each symbol's
  /// chips back to air bits without descrambling.  Used by the overlay
  /// decoder, which compares scrambled symbols directly.  `init_ref` is
  /// the differential phase reference preceding the first symbol (the
  /// modulator starts at 1+0j; mid-frame demodulation passes the last
  /// despread symbol of the previous segment).
  Bits demodulate_air_bits(std::span<const Cf> iq, std::size_t n_bits,
                           Cf init_ref = Cf(1.0f, 0.0f)) const;

  /// Despread complex value of the symbol at `symbol_index` in a 1 Mbps
  /// (Barker) waveform — used to chain differential references across
  /// frame segments.
  Cf despread_symbol_1m(std::span<const Cf> iq, std::size_t symbol_index) const;

  struct RxFrame {
    bool header_ok = false;
    WifiBRate rate = WifiBRate::Dbpsk1M;
    uint16_t length_us = 0;
    Bytes payload;
  };

  /// Demodulate a frame produced by modulate_frame (aligned at sample 0).
  RxFrame demodulate_frame(std::span<const Cf> iq) const;

  /// Preamble + header waveform only (used to build identification
  /// templates and to measure envelopes).
  Iq preamble_waveform(uint16_t payload_bytes = 0) const;

  /// Number of samples occupied by preamble + PLCP header.
  std::size_t preamble_header_samples() const;

 private:
  Iq modulate_bits_1m(std::span<const uint8_t> scrambled, Cf& phase_ref) const;
  Iq modulate_symbols(std::span<const uint8_t> scrambled, Cf& phase_ref) const;
  Bits header_bits(std::size_t payload_bytes) const;

  WifiBConfig cfg_;
};

/// Average each chip's `spc` samples back into one complex chip value;
/// `chips` holds the chip count.  The first step of every 802.11b
/// receive chain above.
void collapse_chips(std::span<const Cf> iq, unsigned spc, std::span<Cf> chips);

}  // namespace ms
