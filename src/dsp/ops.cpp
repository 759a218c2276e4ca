#include "dsp/ops.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "common/lanes.h"

namespace ms {

double mean_power(std::span<const Cf> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const Cf& v : x) acc += static_cast<double>(std::norm(v));
  return acc / static_cast<double>(x.size());
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

Samples normalize(std::span<const float> x) {
  const double m = mean(x);
  const double s = stddev(x);
  Samples out(x.size(), 0.0f);
  if (s <= 0.0) return out;
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = static_cast<float>((x[i] - m) / s);
  return out;
}

float peak_abs(std::span<const float> x) {
  float m = 0.0f;
  for (float v : x) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace ms
