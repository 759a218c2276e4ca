// Scalar oracles for the production PHY kernels and the packed 1-bit
// identification scorer.  Test-only: the ms_test_oracles library links
// into test_differential and test_property, never into src/ or a
// program.
//
// Each kernel in src/dsp/kernels/, the FFT plan in dsp/fft.h and the
// packed scorer in core/ident/templates.h replaced a scalar loop that
// production no longer runs.  That loop lives on here, verbatim, as
// the reference the differential suites and BitpackProperty compare
// production against bit for bit:
//
//   oracle                              production twin
//   Zigbee::modulate_symbols            kernels::oqpsk_synthesize
//   Zigbee::detect_symbols, cck_demap   kernels::CmacBank
//   Ble::symbol_frequencies             kernels::gfsk_symbol_frequencies
//   interleave_11n, deinterleave_11n    kernels::InterleavePlan
//   fft_inplace, ifft_inplace           FftPlan (dsp/fft.h)
//   WifiN::modulate_coded_symbols,      FftPlan over stack scratch
//     WifiN::demodulate_symbol_bits
//   WifiB::demodulate_air_bits          collapse_chips + CCK bank, through
//                                         tests/support's demodulate_air_bits
//   one_bit_scores                      packed_one_bit_peak(s)
//
// The classes mirror the PHY calls those comparisons make.
// What has no kernel twin (framing, CRCs, Barker despreading, Viterbi,
// channel estimation) is the production code, called through its public
// API.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "core/ident/identifier.h"
#include "dsp/iq.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/zigbee/zigbee.h"

namespace ms::oracle {

/// ZigBee: per-chip half-sine accumulate into zeroed branch buffers, and
/// a 16-candidate std::complex correlator over the clean isolated-symbol
/// waveforms, built once by that modulator.
class Zigbee {
 public:
  explicit Zigbee(ZigbeeConfig cfg = {});

  Iq modulate_symbols(std::span<const uint8_t> symbols) const;
  std::vector<ZigbeePhy::SymbolDetect> detect_symbols(
      std::span<const Cf> iq, std::size_t n_symbols) const;

 private:
  ZigbeeConfig cfg_;
  std::array<Iq, 16> refs_;
};

/// 802.11b CCK: rebuild every codeword's chips from cos/sin and
/// correlate them one at a time.
Bits cck_demap(std::span<const Cf> chips, bool rate11, Cf& rot);

/// 802.11b: one symbol's `cps` chips, each the average of its `spc`
/// samples, in a fresh vector.
Iq collapse_chips(std::span<const Cf> sym_iq, unsigned spc, unsigned cps);

/// 802.11b: the allocating per-symbol chip collapse feeding Barker
/// despreading or the cck_demap oracle.
class WifiB {
 public:
  explicit WifiB(WifiBConfig cfg = {});

  Bits demodulate_air_bits(std::span<const Cf> iq, std::size_t n_bits,
                           Cf init_ref = Cf(1.0f, 0.0f)) const;

 private:
  WifiBConfig cfg_;
};

/// BLE: discriminate() over the whole trace, then the middle half of
/// each symbol averaged.
class Ble {
 public:
  explicit Ble(BleConfig cfg = {});

  Samples symbol_frequencies(std::span<const Cf> iq,
                             std::size_t n_symbols) const;
  Bits demodulate_bits(std::span<const Cf> iq, std::size_t n_bits) const;

 private:
  BleConfig cfg_;
};

/// 802.11n interleaver: the two standard permutations evaluated per bit.
Bits interleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                    unsigned n_bpsc);
Bits deinterleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                      unsigned n_bpsc);

/// Radix-2 decimation-in-time FFT that regenerates every twiddle with a
/// `w *= wlen` complex-float recurrence, restarted per block, and
/// multiplies through std::complex.  fft_inplace is unnormalized;
/// ifft_inplace scales by 1/N.  Requires a power-of-two length >= 1.
void fft_inplace(Iq& x);
void ifft_inplace(Iq& x);

/// 802.11n OFDM: the allocating symbol chains over the recurrence FFT
/// above, and the deinterleave_11n oracle.
class WifiN {
 public:
  explicit WifiN(WifiNConfig cfg = {});

  Iq modulate_coded_symbols(std::span<const uint8_t> coded_bits,
                            std::size_t first_symbol_index = 0) const;
  Bits demodulate_symbol_bits(std::span<const Cf> iq, std::size_t n_symbols,
                              std::span<const Cf> channel = {},
                              std::size_t first_symbol_index = 0) const;
  WifiNPhy::RxFrame demodulate_frame(std::span<const Cf> iq,
                                     std::size_t payload_bytes) const;

 private:
  WifiNConfig cfg_;
};

/// OneBit identification scores of `ident` (ComputeMode::OneBit): per
/// protocol and alignment, quantize the window into a vector<int8_t>
/// with one_bit_window() and score it with sign_correlation().
std::array<double, 4> one_bit_scores(const ProtocolIdentifier& ident,
                                     std::span<const float> adc_trace);

}  // namespace ms::oracle
