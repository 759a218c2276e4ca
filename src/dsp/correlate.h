// Correlation primitives for template matching.
//
// Protocol identification (§2.2.2/§2.3) correlates ADC traces against
// stored per-protocol envelope templates.  Two variants matter:
//   - full-precision normalized cross-correlation (Pearson), used to
//     establish the accuracy ceiling (Fig 5), and
//   - 1-bit sign correlation, the adder-only form that fits the
//     ultra-low-power FPGA (Table 2).
#pragma once

#include <cstdint>
#include <span>

#include "dsp/iq.h"

namespace ms {

/// Pearson correlation coefficient of two equal-length vectors, in [-1, 1].
/// Returns 0 when either input has zero variance.
double pearson(std::span<const float> a, std::span<const float> b);

/// Sliding Pearson correlation of `x` against `tmpl`: out[i] is the
/// correlation of x[i .. i+len) with the template.  Empty when x is
/// shorter than the template.
Samples sliding_correlation(std::span<const float> x,
                            std::span<const float> tmpl);

/// Normalized 1-bit correlation: fraction of positions where the signs
/// agree, mapped to [-1, 1].  This is the hardware-friendly score — it is
/// a popcount/adder circuit, no multipliers.
double sign_correlation(std::span<const int8_t> a, std::span<const int8_t> b);

}  // namespace ms
