#include "channel/multipath.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>

#include "common/error.h"
#include "common/units.h"

namespace ms {

namespace {

/// Exponential power-delay profile over the scattered taps: per-tap
/// powers summing to the total scatter power 1/(1+K).
std::vector<double> scatter_tap_powers(const MultipathConfig& cfg) {
  const double k = db_to_linear(cfg.k_factor_db);
  const double scatter_power = 1.0 / (1.0 + k);
  std::vector<double> powers;
  if (cfg.n_taps <= 1) return powers;
  powers.resize(cfg.n_taps - 1);
  double wsum = 0.0;
  for (unsigned t = 0; t < cfg.n_taps - 1; ++t) {
    powers[t] = std::exp(-static_cast<double>(t + 1) / 2.0);
    wsum += powers[t];
  }
  for (double& p : powers) p = scatter_power * p / wsum;
  return powers;
}

}  // namespace

MultipathChannel sample_multipath(const MultipathConfig& cfg,
                                  double sample_rate_hz, Rng& rng) {
  MS_CHECK(cfg.n_taps >= 1);
  MS_CHECK(sample_rate_hz > 0.0);
  MultipathChannel ch;
  ch.taps.reserve(cfg.n_taps);
  ch.delays.reserve(cfg.n_taps);

  const double k = db_to_linear(cfg.k_factor_db);
  const double los_power = k / (1.0 + k);

  // LoS tap: fixed amplitude, random absolute phase.
  const double los_phase = rng.uniform(0.0, 2.0 * M_PI);
  ch.taps.push_back(Cf(static_cast<float>(std::sqrt(los_power) * std::cos(los_phase)),
                       static_cast<float>(std::sqrt(los_power) * std::sin(los_phase))));
  ch.delays.push_back(0);

  const std::vector<double> powers = scatter_tap_powers(cfg);
  for (unsigned t = 0; t < powers.size(); ++t) {
    const double sigma = std::sqrt(powers[t] / 2.0);
    // Imaginary part first: the order every recorded stream was drawn in.
    const float im = static_cast<float>(rng.normal(0.0, sigma));
    const float re = static_cast<float>(rng.normal(0.0, sigma));
    ch.taps.push_back(Cf(re, im));
    const double delay_s = cfg.delay_spread_s * static_cast<double>(t + 1);
    ch.delays.push_back(std::max<std::size_t>(
        1, static_cast<std::size_t>(delay_s * sample_rate_hz)));
  }
  return ch;
}

namespace {

using F4 = float __attribute__((vector_size(16)));
using I4 = int __attribute__((vector_size(16)));

/// Output i of the tapped delay line: from (+0, +0), add x[i − d_t]·h_t
/// for every tap t in order whose delay d_t reaches back no further than
/// x[0], each product the library's std::complex<float> product.
Cf apply_at(std::span<const Cf> x, const MultipathChannel& ch, std::size_t i) {
  Cf acc(0.0f, 0.0f);
  for (std::size_t t = 0; t < ch.taps.size(); ++t)
    if (ch.delays[t] <= i) acc += x[i - ch.delays[t]] * ch.taps[t];
  return acc;
}

}  // namespace

Iq MultipathChannel::apply(std::span<const Cf> x) const {
  MS_CHECK(taps.size() == delays.size());
  MS_CHECK(!taps.empty());
  const std::size_t n = x.size();
  const std::size_t reach = *std::max_element(delays.begin(), delays.end());
  Iq out(n);
  // Outputs [0, reach) miss some taps; they, the last (n − reach) mod 4
  // outputs and any block that needs the NaN recovery take apply_at.
  std::size_t i = 0;
  for (; i < std::min(reach, n); ++i) out[i] = apply_at(x, *this, i);
  // Four outputs at a time in planar lanes.  Each lane starts at +0.0f
  // and adds its taps in order, and each product is the four-multiply
  // form GCC inlines for std::complex<float> (re = a·c − b·d,
  // im = a·d + b·c), so every sum is apply_at's bit for bit unless a
  // product is NaN in both parts, where the library calls __mulsc3 to
  // recover an infinity.  Such a product leaves both parts of its sum
  // NaN, so a block with a NaN-in-both-parts lane is redone by apply_at.
  // std::complex<float> is layout-compatible with float[2].
  const float* xf = reinterpret_cast<const float*>(x.data());
  float* of = reinterpret_cast<float*>(out.data());
  for (; i + 4 <= n; i += 4) {
    F4 re = {}, im = {};
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const float c = taps[t].real(), d = taps[t].imag();
      const F4 cc = {c, c, c, c};
      const F4 dd = {d, d, d, d};
      F4 lo, hi;
      std::memcpy(&lo, xf + 2 * (i - delays[t]), sizeof(F4));
      std::memcpy(&hi, xf + 2 * (i - delays[t]) + 4, sizeof(F4));
      const F4 a = __builtin_shuffle(lo, hi, I4{0, 2, 4, 6});
      const F4 b = __builtin_shuffle(lo, hi, I4{1, 3, 5, 7});
      re += a * cc - b * dd;
      im += a * dd + b * cc;
    }
    const I4 both_nan = (re != re) & (im != im);
    if (both_nan[0] | both_nan[1] | both_nan[2] | both_nan[3]) {
      for (std::size_t j = i; j < i + 4; ++j) out[j] = apply_at(x, *this, j);
      continue;
    }
    const F4 lo = __builtin_shuffle(re, im, I4{0, 4, 1, 5});
    const F4 hi = __builtin_shuffle(re, im, I4{2, 6, 3, 7});
    std::memcpy(of + 2 * i, &lo, sizeof(F4));
    std::memcpy(of + 2 * i + 4, &hi, sizeof(F4));
  }
  for (; i < n; ++i) out[i] = apply_at(x, *this, i);
  return out;
}

}  // namespace ms
