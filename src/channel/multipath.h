// Small-scale fading: a sparse tapped-delay-line channel with a Rician
// line-of-sight component — the per-location variation behind the
// paper's 200k-trace, many-location identification study ("no
// location-sensitivity is observed", §2.3.2).
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "dsp/iq.h"

namespace ms {

struct MultipathConfig {
  unsigned n_taps = 3;            ///< LoS tap + (n_taps−1) echoes
  double delay_spread_s = 60e-9;  ///< RMS delay spread (indoor: 30–100 ns)
  double k_factor_db = 6.0;       ///< LoS-to-scatter power ratio
};

/// One realization of the channel impulse response (unit total power).
/// Tap 0 is the LoS path; echoes decay exponentially over the delay
/// spread with Rayleigh-distributed complex gains.
struct MultipathChannel {
  std::vector<Cf> taps;           ///< complex gain per tap
  std::vector<std::size_t> delays;  ///< tap delays in samples

  /// Convolve a waveform with this channel realization.
  Iq apply(std::span<const Cf> x) const;
};

MultipathChannel sample_multipath(const MultipathConfig& cfg,
                                  double sample_rate_hz, Rng& rng);

}  // namespace ms
