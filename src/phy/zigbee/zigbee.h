// IEEE 802.15.4 (ZigBee) 2.4 GHz PHY: 250 kbps, 4 bits/symbol mapped to
// one of 16 32-chip PN sequences, OQPSK with half-sine pulse shaping and
// the half-chip I/Q offset, 2 Mchip/s.
//
// The receiver correlates each symbol's waveform against the 16 candidate
// symbol waveforms and picks the best match — the behaviour the paper
// exploits (§2.4.2) when a tag phase flip garbles part of a symbol.
#pragma once

#include <array>
#include <mutex>
#include <span>

#include "common/bits.h"
#include "dsp/iq.h"
#include "dsp/kernels/cmac_bank.h"
#include "dsp/kernels/config.h"

namespace ms {

inline constexpr std::size_t kZigbeeChipsPerSymbol = 32;
inline constexpr double kZigbeeChipRate = 2e6;
inline constexpr double kZigbeeSymbolRate = 62.5e3;

/// The 16 standard PN sequences (chip 0 transmitted first, one uint32 per
/// symbol, LSB = chip 0).
std::span<const std::uint32_t> zigbee_pn_table();

struct ZigbeeConfig {
  unsigned samples_per_chip = 4;  ///< 2 Mcps × 4 = 8 Msps baseband
  /// Kernel pair selection for synthesis + despreading (bit-identical
  /// either way; Reference is the oracle the differential tests pin).
  kernels::KernelPath path = kernels::KernelPath::Auto;
};

class ZigbeePhy {
 public:
  explicit ZigbeePhy(ZigbeeConfig cfg = {});

  double sample_rate_hz() const { return kZigbeeChipRate * cfg_.samples_per_chip; }
  std::size_t samples_per_symbol() const {
    return kZigbeeChipsPerSymbol * cfg_.samples_per_chip;
  }
  const ZigbeeConfig& config() const { return cfg_; }

  /// OQPSK waveform for a sequence of 4-bit symbols (values 0..15).
  /// The half-chip Q offset runs across symbol boundaries, exactly as on
  /// the air; the final Q half-pulse is included (output is padded by
  /// half a chip).
  Iq modulate_symbols(std::span<const uint8_t> symbols) const;

  /// Full frame: 8-symbol preamble (zeros), SFD 0xA7, PHR (length byte),
  /// payload, CRC-16.
  Iq modulate_frame(std::span<const uint8_t> payload) const;

  /// Per-symbol coherent detection: for each symbol the best-matching PN
  /// index and the complex correlation (whose phase the overlay decoder
  /// compares against the reference symbol).
  struct SymbolDetect {
    uint8_t symbol = 0;  ///< best PN index 0..15
    Cf corr;             ///< complex correlation with that PN waveform
  };
  std::vector<SymbolDetect> detect_symbols(std::span<const Cf> iq,
                                           std::size_t n_symbols) const;

  /// Hard symbol decisions only.
  std::vector<uint8_t> demodulate_symbols(std::span<const Cf> iq,
                                          std::size_t n_symbols) const;

  struct RxFrame {
    bool crc_ok = false;
    Bytes payload;
  };
  RxFrame demodulate_frame(std::span<const Cf> iq,
                           std::size_t payload_bytes) const;

  /// Preamble waveform (8 zero symbols, 128 µs) for identification
  /// templates.
  Iq preamble_waveform() const;

  /// Convert bytes to 4-bit symbols, low nibble first (per the standard).
  static std::vector<uint8_t> bytes_to_symbols(std::span<const uint8_t> bytes);
  static Bytes symbols_to_bytes(std::span<const uint8_t> symbols);

 private:
  /// Clean reference waveform of one isolated symbol (used by the
  /// correlating detector); cached per PN index.
  const Iq& reference_waveform(uint8_t symbol) const;

  /// Planar conj(ref) bank over all 16 PN waveforms for the fast
  /// despreader.
  const kernels::CmacBank& candidate_bank() const;

  /// Builds ref_cache_ and bank_ on first use.  One instance may decode
  /// on several threads at once (an OverlayReceiver shared by a sweep's
  /// workers), so the build runs exactly once, under std::call_once.
  void build_references() const;

  ZigbeeConfig cfg_;
  mutable std::once_flag references_built_;
  mutable std::array<Iq, 16> ref_cache_;
  mutable kernels::CmacBank bank_;
};

}  // namespace ms
