#include "channel/awgn.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/units.h"
#include "dsp/ops.h"

namespace ms {

namespace {

/// Normal draws per stack block: 128 complex or 256 real samples.
constexpr std::size_t kDrawBlock = 256;

/// A negative or non-finite noise power would make every sample NaN
/// through the square root; it is an error naming the value instead.
double noise_sigma(const char* fn, double noise_power) {
  if (!(noise_power >= 0.0) || !std::isfinite(noise_power)) {
    char what[128];
    std::snprintf(what, sizeof what,
                  "%s: noise_power must be finite and >= 0, got %g", fn,
                  noise_power);
    throw Error(what);
  }
  return std::sqrt(noise_power / 2.0);
}

/// Complex Gaussian noise of per-component deviation sigma: calls
/// emit(k, noise) for k = 0 … n−1, drawing through Rng::normals in
/// stack blocks.  Each sample takes two successive draws z, imaginary
/// part first (the order every recorded stream was drawn in), and each
/// part is float(0.0 + sigma·z), what rng.normal(0.0, sigma) returns.
template <typename Emit>
void complex_draws(std::size_t n, double sigma, Rng& rng, Emit emit) {
  double z[kDrawBlock];
  for (std::size_t k0 = 0; k0 < n; k0 += kDrawBlock / 2) {
    const std::size_t m = std::min(kDrawBlock / 2, n - k0);
    rng.normals(std::span<double>(z, 2 * m));
    for (std::size_t j = 0; j < m; ++j)
      emit(k0 + j, Cf(static_cast<float>(0.0 + sigma * z[2 * j + 1]),
                      static_cast<float>(0.0 + sigma * z[2 * j])));
  }
}

}  // namespace

Iq complex_noise(std::size_t n, double noise_power, Rng& rng) {
  const double sigma = noise_sigma("complex_noise", noise_power);
  Iq out(n);
  complex_draws(n, sigma, rng, [&](std::size_t k, Cf v) { out[k] = v; });
  return out;
}

Iq add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng) {
  const double sigma = noise_sigma("add_noise_power", noise_power);
  Iq out(x.begin(), x.end());
  complex_draws(out.size(), sigma, rng,
                [&](std::size_t k, Cf v) { out[k] += v; });
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
  double z[kDrawBlock];
  for (std::size_t k0 = 0; k0 < out.size(); k0 += kDrawBlock) {
    const std::size_t m = std::min(kDrawBlock, out.size() - k0);
    rng.normals(std::span<double>(z, m));
    for (std::size_t j = 0; j < m; ++j)
      out[k0 + j] += static_cast<float>(0.0 + sigma * z[j]);
  }
  return out;
}

}  // namespace ms
