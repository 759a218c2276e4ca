// Frequency shifting and FM discrimination of complex baseband waveforms.
//
// Backscatter tags shift carriers to an adjacent channel by toggling the RF
// switch at the offset frequency; at complex baseband that is exactly a
// multiplication by exp(j2πΔf t), which is what these helpers implement.
#pragma once

#include <span>

#include "dsp/iq.h"

namespace ms {

/// Multiply by exp(j·2π·freq_offset_hz·t) — shift the spectrum up by
/// freq_offset_hz.  `phase0` is the starting phase in radians.
Iq frequency_shift(std::span<const Cf> x, double freq_offset_hz,
                   double sample_rate_hz, double phase0 = 0.0);

/// Instantaneous frequency (Hz) via phase differentiation — the FM
/// discriminator used by the GFSK demodulator.  Output has size()-1
/// elements (or 0 for inputs shorter than 2).
Samples discriminate(std::span<const Cf> x, double sample_rate_hz);

}  // namespace ms
