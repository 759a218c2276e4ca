// Elementary waveform operations: power, envelopes, moments and
// normalization.  These are the primitives both the PHY receivers and the
// tag's identification pipeline are built from.
#pragma once

#include <span>

#include "dsp/iq.h"

namespace ms {

/// Mean power (mean |x|^2) of a waveform; 0 for an empty input.
double mean_power(std::span<const Cf> x);

/// |x| of every sample — the ideal envelope of a complex waveform, bit
/// for bit what std::abs returns (docs/PERF.md §9).
Samples envelope(std::span<const Cf> x);

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const float> x);

/// Population standard deviation; 0 for fewer than 2 samples.
double stddev(std::span<const float> x);

/// Z-score normalization: (x - mean) / stddev.  Returns zeros when the
/// input has no variance (constant trace).
Samples normalize(std::span<const float> x);

/// Maximum absolute value; 0 for an empty input.
float peak_abs(std::span<const float> x);

}  // namespace ms
