// FIR filter design and application.
//
// Provides windowed-sinc low-pass design (used for pulse shaping and
// decimation pre-filters) and the Gaussian pulse-shaping filter required
// by BLE's GFSK (BT = 0.5).
#pragma once

#include <span>
#include <vector>

#include "dsp/iq.h"

namespace ms {

/// Windowed-sinc (Hamming) low-pass filter taps.
/// cutoff is normalized to the sample rate (0 < cutoff < 0.5);
/// `taps` must be odd so the filter has integer group delay.
std::vector<float> design_lowpass(double cutoff, std::size_t taps);

/// Gaussian pulse-shaping taps for GFSK with bandwidth-time product `bt`,
/// `sps` samples per symbol, truncated to `span_symbols` symbol periods.
/// Taps are normalized to unit sum so a constant input passes unchanged.
std::vector<float> design_gaussian(double bt, std::size_t sps,
                                   std::size_t span_symbols = 3);

/// "Same"-length convolution of a real signal with the taps: the output is
/// aligned with the input (group delay removed for symmetric taps).  Both
/// overloads return every NaN as the canonical quiet NaN, so a NaN's sign
/// never depends on the build.
Samples fir_filter(std::span<const float> x, std::span<const float> taps);

/// "Same"-length convolution of a complex signal with real taps.
Iq fir_filter(std::span<const Cf> x, std::span<const float> taps);

}  // namespace ms
