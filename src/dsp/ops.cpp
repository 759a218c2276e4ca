#include "dsp/ops.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "common/error.h"
#include "common/lanes.h"

namespace ms {

double mean_power(std::span<const Cf> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const Cf& v : x) acc += static_cast<double>(std::norm(v));
  return acc / static_cast<double>(x.size());
}

double mean_power(std::span<const float> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * v;
  return acc / static_cast<double>(x.size());
}

void set_mean_power(Iq& x, double target) {
  MS_CHECK(target > 0.0);
  const double p = mean_power(std::span<const Cf>(x));
  if (p <= 0.0) return;
  const float scale = static_cast<float>(std::sqrt(target / p));
  for (Cf& v : x) v *= scale;
}

Samples envelope(std::span<const Cf> x) {
  // For finite parts, glibc's hypotf (behind std::abs) returns
  // float(sqrt(double(re)² + double(im)²)): both squares are exact in
  // double, and the sum and the square root round once each.  Two
  // samples at a time in double lanes; a pair holding an infinite or
  // NaN part, the only inputs whose sum is not finite, goes through
  // std::abs.
  Samples out(x.size());
  std::size_t i = 0;
  for (; i + 2 <= x.size(); i += 2) {
    const lanes::D2 re = {x[i].real(), x[i + 1].real()};
    const lanes::D2 im = {x[i].imag(), x[i + 1].imag()};
    const lanes::D2 s = re * re + im * im;
    if (!(s[0] <= DBL_MAX && s[1] <= DBL_MAX)) {
      out[i] = std::abs(x[i]);
      out[i + 1] = std::abs(x[i + 1]);
      continue;
    }
    const lanes::D2 m = lanes::sqrt(s);
    out[i] = static_cast<float>(m[0]);
    out[i + 1] = static_cast<float>(m[1]);
  }
  if (i < x.size()) out[i] = std::abs(x[i]);
  return out;
}

double mean(std::span<const float> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (float v : x) acc += v;
  return acc / static_cast<double>(x.size());
}

double stddev(std::span<const float> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double acc = 0.0;
  for (float v : x) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(x.size()));
}

Samples remove_dc(std::span<const float> x) {
  const float m = static_cast<float>(mean(x));
  Samples out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - m;
  return out;
}

Samples normalize(std::span<const float> x) {
  const double m = mean(x);
  const double s = stddev(x);
  Samples out(x.size(), 0.0f);
  if (s <= 0.0) return out;
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = static_cast<float>((x[i] - m) / s);
  return out;
}

Samples moving_average(std::span<const float> x, std::size_t window) {
  MS_CHECK(window >= 1);
  Samples out(x.size());
  const std::size_t half = window / 2;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(x.size(), i + half + 1);
    double acc = 0.0;
    for (std::size_t j = lo; j < hi; ++j) acc += x[j];
    out[i] = static_cast<float>(acc / static_cast<double>(hi - lo));
  }
  return out;
}

Samples quantize(std::span<const float> x, unsigned bits, float full_scale) {
  MS_CHECK(bits >= 1 && bits <= 16);
  MS_CHECK(full_scale > 0.0f);
  const float levels = static_cast<float>((1u << bits) - 1);
  Samples out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    float v = std::clamp(x[i], -full_scale, full_scale);
    // map [-fs, fs] -> [0, levels], round, map back
    const float code = std::round((v + full_scale) / (2 * full_scale) * levels);
    out[i] = code / levels * 2 * full_scale - full_scale;
  }
  return out;
}

std::vector<int8_t> sign_quantize(std::span<const float> x) {
  std::vector<int8_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] >= 0.0f ? 1 : -1;
  return out;
}

Samples decimate(std::span<const float> x, std::size_t factor,
                 std::size_t phase) {
  MS_CHECK(factor >= 1);
  MS_CHECK(phase < factor);
  Samples out;
  out.reserve((x.size() + factor - 1) / factor);
  for (std::size_t i = phase; i < x.size(); i += factor) out.push_back(x[i]);
  return out;
}

float peak_abs(std::span<const float> x) {
  float m = 0.0f;
  for (float v : x) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace ms
