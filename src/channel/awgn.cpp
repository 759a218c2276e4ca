#include "channel/awgn.h"

#include <cmath>

#include "common/units.h"
#include "dsp/ops.h"

namespace ms {

Iq complex_noise(std::size_t n, double noise_power, Rng& rng) {
  Iq out(n);
  const double sigma = std::sqrt(noise_power / 2.0);
  for (Cf& v : out) {
    // Imaginary part first: the order every recorded stream was drawn in.
    const float im = static_cast<float>(rng.normal(0.0, sigma));
    const float re = static_cast<float>(rng.normal(0.0, sigma));
    v = Cf(re, im);
  }
  return out;
}

Iq add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng) {
  Iq out(x.begin(), x.end());
  const double sigma = std::sqrt(noise_power / 2.0);
  for (Cf& v : out) {
    // Imaginary part first, as in complex_noise.
    const float im = static_cast<float>(rng.normal(0.0, sigma));
    const float re = static_cast<float>(rng.normal(0.0, sigma));
    v += Cf(re, im);
  }
  return out;
}

Iq add_awgn(std::span<const Cf> x, double snr_db, Rng& rng) {
  const double p = mean_power(x);
  if (p <= 0.0) return Iq(x.begin(), x.end());
  return add_noise_power(x, p / db_to_linear(snr_db), rng);
}

Samples add_awgn(std::span<const float> x, double snr_db, Rng& rng) {
  const double p = mean_power(x);
  Samples out(x.begin(), x.end());
  if (p <= 0.0) return out;
  const double sigma = std::sqrt(p / db_to_linear(snr_db));
  for (float& v : out) v += static_cast<float>(rng.normal(0.0, sigma));
  return out;
}

}  // namespace ms
