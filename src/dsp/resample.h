// Sample-rate conversion.
//
// The PHY transmitters synthesize waveforms at a native rate (e.g. 11 Mcps
// for 802.11b, 20 Msps for OFDM); the tag's ADC observes the envelope at
// 20 / 10 / 2.5 / 1 Msps.  These helpers bridge the rates.
#pragma once

#include <span>

#include "dsp/iq.h"

namespace ms {

/// Arbitrary-ratio resampling by linear interpolation.  `ratio` is
/// out_rate / in_rate; e.g. 0.125 resamples 20 Msps to 2.5 Msps.
Samples resample_linear(std::span<const float> x, double ratio);
Iq resample_linear(std::span<const Cf> x, double ratio);

/// Anti-aliased decimating resampler: each output sample is the mean of
/// the input samples in its output-period window (an ADC's track/hold +
/// input RC behave this way).  For ratio >= 1 falls back to linear
/// interpolation.
Samples resample_average(std::span<const float> x, double ratio);

}  // namespace ms
