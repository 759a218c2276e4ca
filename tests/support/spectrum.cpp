#include "spectrum.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "dsp/fft.h"

namespace ms {

double Psd::frequency(std::size_t i) const {
  const double n = static_cast<double>(power.size());
  return (static_cast<double>(i) - n / 2.0) * bin_hz;
}

std::size_t Psd::peak_bin() const {
  return static_cast<std::size_t>(std::distance(
      power.begin(), std::max_element(power.begin(), power.end())));
}

double Psd::band_power(double lo_hz, double hi_hz) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < power.size(); ++i) {
    const double f = frequency(i);
    if (f >= lo_hz && f <= hi_hz) acc += power[i];
  }
  return acc;
}

double Psd::occupied_bandwidth(double fraction) const {
  MS_CHECK(fraction > 0.0 && fraction < 1.0);
  const double total = std::accumulate(power.begin(), power.end(), 0.0);
  if (total <= 0.0) return 0.0;
  // Mean frequency as the band center.
  double mean_f = 0.0;
  for (std::size_t i = 0; i < power.size(); ++i)
    mean_f += frequency(i) * power[i];
  mean_f /= total;
  // Grow the band symmetrically until it holds the requested fraction.
  for (double half = bin_hz; half < bin_hz * power.size(); half += bin_hz) {
    if (band_power(mean_f - half, mean_f + half) >= fraction * total)
      return 2.0 * half;
  }
  return bin_hz * static_cast<double>(power.size());
}

Psd welch_psd(std::span<const Cf> x, double sample_rate_hz,
              const PsdConfig& cfg) {
  MS_CHECK(is_pow2(cfg.segment_len));
  MS_CHECK(cfg.overlap >= 0.0 && cfg.overlap < 1.0);
  MS_CHECK_MSG(x.size() >= cfg.segment_len, "waveform shorter than a segment");

  const std::size_t n = cfg.segment_len;
  const std::size_t hop = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * (1.0 - cfg.overlap)));

  std::vector<float> window(n);
  double win_power = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    window[i] = static_cast<float>(
        0.5 * (1.0 - std::cos(2.0 * M_PI * static_cast<double>(i) /
                              static_cast<double>(n - 1))));
    win_power += window[i] * window[i];
  }

  Psd out;
  out.power.assign(n, 0.0);
  out.bin_hz = sample_rate_hz / static_cast<double>(n);
  std::size_t n_segments = 0;
  Iq seg(n);
  for (std::size_t start = 0; start + n <= x.size(); start += hop) {
    for (std::size_t i = 0; i < n; ++i) seg[i] = x[start + i] * window[i];
    fft_inplace(seg);
    for (std::size_t i = 0; i < n; ++i) {
      // DC-centered ordering: bin 0 of the FFT is DC → index n/2.
      const std::size_t k = (i + n / 2) % n;
      out.power[k] += std::norm(seg[i]) / (win_power * static_cast<double>(n));
    }
    ++n_segments;
  }
  MS_CHECK(n_segments > 0);
  for (double& p : out.power) p /= static_cast<double>(n_segments);
  return out;
}

}  // namespace ms
