// Elementary waveform operations: power, envelopes, DC removal,
// normalization, quantization, and moving averages.  These are the
// primitives both the PHY receivers and the tag's identification pipeline
// are built from.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/iq.h"

namespace ms {

/// Mean power (mean |x|^2) of a waveform; 0 for an empty input.
double mean_power(std::span<const Cf> x);
double mean_power(std::span<const float> x);

/// Scale a waveform in place so its mean power equals `target` (>0).
/// No-op on silence (all-zero input).
void set_mean_power(Iq& x, double target);

/// |x| of every sample — the ideal envelope of a complex waveform, bit
/// for bit what std::abs returns (docs/PERF.md §9).
Samples envelope(std::span<const Cf> x);

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const float> x);

/// Population standard deviation; 0 for fewer than 2 samples.
double stddev(std::span<const float> x);

/// Subtract the mean of `x` from every sample (DC removal).
Samples remove_dc(std::span<const float> x);

/// Z-score normalization: (x - mean) / stddev.  Returns zeros when the
/// input has no variance (constant trace).
Samples normalize(std::span<const float> x);

/// Centered moving average with the given odd window (edges use the
/// available neighbourhood).
Samples moving_average(std::span<const float> x, std::size_t window);

/// Uniform mid-rise quantizer: clamps to [-full_scale, +full_scale] and
/// quantizes to 2^bits levels.  Models the tag ADC's amplitude resolution.
Samples quantize(std::span<const float> x, unsigned bits, float full_scale);

/// 1-bit (sign) quantization to ±1 — the tag's ultra-low-power operating
/// point that turns correlation multipliers into adders (§2.3.1).
std::vector<int8_t> sign_quantize(std::span<const float> x);

/// Keep every `factor`-th sample starting at `phase`.
Samples decimate(std::span<const float> x, std::size_t factor,
                 std::size_t phase = 0);

/// Maximum absolute value; 0 for an empty input.
float peak_abs(std::span<const float> x);

}  // namespace ms
