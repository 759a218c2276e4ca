// Per-protocol envelope templates (§2.2.2).
//
// A template is the clean ADC trace of a protocol's packet-detection field
// after the front end, rectifier, and ADC — exactly what the tag stores in
// its 36 kb FPGA memory.  The template window splits into a preprocessing
// part of L_p samples (used only for DC-threshold estimation) and a
// matching part of L_t samples (correlated against the live trace).
//
// The extended window (§2.3.2) stretches the deterministic region to
// 40 µs: BLE adds the constant advertising access address, 802.11n adds
// the HT-STF/HT-LTF fields, and 802.11b/ZigBee preambles are already
// longer than 40 µs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/ident/frontend.h"
#include "dsp/bitpack.h"
#include "dsp/iq.h"
#include "phy/protocol.h"

namespace ms {

/// Native complex-baseband sample rate at which each PHY synthesizes
/// waveforms in this simulator.
double native_sample_rate(Protocol p);

/// Clean packet-detection waveform: the minimal 8 µs window, or the
/// 40 µs extended window (clipped to the protocol's deterministic length).
Iq clean_preamble(Protocol p, bool extended);

struct TemplateParams {
  double adc_rate_hz = 20e6;
  std::size_t preprocess_len = 40;  ///< L_p
  std::size_t match_len = 120;      ///< L_t
  bool extended = false;
  FrontEndConfig front_end;
};

struct TemplateSet {
  TemplateParams params;
  std::array<Samples, 4> matched;            ///< normalized, full precision
  std::array<std::vector<int8_t>, 4> one_bit;  ///< ±1 quantized
  /// The ±1 templates packed 64 positions per word — what the XOR+popcount
  /// scoring kernel correlates against (bit-exact vs `one_bit`).
  std::array<bitpack::PackedVec, 4> one_bit_packed;
};

/// Build the four templates by pushing each protocol's clean preamble
/// through the acquisition chain at the given ADC rate.
TemplateSet build_templates(const TemplateParams& params);

/// Normalize trace[offset+Lp .. offset+Lp+Lt) using the mean of the
/// preceding L_p samples as the DC threshold — the FPGA's preprocessing.
std::vector<int8_t> one_bit_window(std::span<const float> trace,
                                   std::size_t offset, std::size_t lp,
                                   std::size_t lt);

/// The DC threshold one_bit_window() quantizes against at `offset`: mean
/// of the L_p samples preceding the match window, or the window mean when
/// L_p = 0.  Exposed so the packed kernel reproduces it bit-for-bit.
double one_bit_threshold(std::span<const float> trace, std::size_t offset,
                         std::size_t lp, std::size_t lt);

struct OneBitPeak {
  double score = -1.0;    ///< -1 when no alignment fits in the trace
  std::size_t offset = 0;
};

/// Packed twin of the byte-per-position scoring loop
/// (oracle::one_bit_scores, tests/differential/oracles.h): for every
/// alignment off ∈ [lo, hi] with off + lp + tmpl.bits ≤ trace.size(),
/// quantize the match window exactly as one_bit_window() does and score
/// it against the packed template by XOR+popcount.  Returns the best
/// score and the earliest offset attaining it; scores are bit-identical
/// to sign_correlation() on the unpacked window.
OneBitPeak packed_one_bit_peak(std::span<const float> trace, std::size_t lo,
                               std::size_t hi, std::size_t lp,
                               const bitpack::PackedVec& tmpl);

/// Fused four-template variant: all templates must have the same bit
/// length, which lets the DC threshold and the packed live window be
/// computed ONCE per alignment and reused across all four protocols —
/// the quantization work that dominates the scoring loop is paid once
/// instead of four times.  Per-protocol results are bit-identical to
/// four independent packed_one_bit_peak() calls (identical threshold,
/// identical window bits, identical dot).
std::array<OneBitPeak, 4> packed_one_bit_peaks(
    std::span<const float> trace, std::size_t lo, std::size_t hi,
    std::size_t lp, const std::array<bitpack::PackedVec, 4>& tmpls);

}  // namespace ms
