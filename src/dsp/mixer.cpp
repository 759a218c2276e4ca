#include "dsp/mixer.h"

#include <cmath>

#include "common/error.h"

namespace ms {

Iq frequency_shift(std::span<const Cf> x, double freq_offset_hz,
                   double sample_rate_hz, double phase0) {
  MS_CHECK(sample_rate_hz > 0.0);
  Iq out(x.size());
  const double w = 2.0 * M_PI * freq_offset_hz / sample_rate_hz;
  // Incremental rotation with periodic renormalization to bound drift.
  Cf rot(static_cast<float>(std::cos(phase0)), static_cast<float>(std::sin(phase0)));
  const Cf step(static_cast<float>(std::cos(w)), static_cast<float>(std::sin(w)));
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * rot;
    rot *= step;
    if ((i & 0x3ff) == 0x3ff) rot /= std::abs(rot);
  }
  return out;
}

Samples discriminate(std::span<const Cf> x, double sample_rate_hz) {
  MS_CHECK(sample_rate_hz > 0.0);
  if (x.size() < 2) return {};
  Samples out(x.size() - 1);
  const double scale = sample_rate_hz / (2.0 * M_PI);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const Cf prod = x[i + 1] * std::conj(x[i]);
    out[i] = static_cast<float>(std::arg(prod) * scale);
  }
  return out;
}

}  // namespace ms
