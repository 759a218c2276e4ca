#include "dsp/resample.h"

#include <cmath>

#include "common/error.h"

namespace ms {

namespace {

template <typename T>
std::vector<T> lerp_resample(std::span<const T> x, double ratio) {
  MS_CHECK(ratio > 0.0);
  if (x.empty()) return {};
  const std::size_t n_out =
      static_cast<std::size_t>(std::floor(static_cast<double>(x.size()) * ratio));
  std::vector<T> out;
  out.reserve(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    const double pos = static_cast<double>(i) / ratio;
    const std::size_t i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x.size()) {
      out.push_back(x.back());
      continue;
    }
    const float frac = static_cast<float>(pos - static_cast<double>(i0));
    out.push_back(x[i0] * (1.0f - frac) + x[i0 + 1] * frac);
  }
  return out;
}

}  // namespace

Samples resample_linear(std::span<const float> x, double ratio) {
  return lerp_resample<float>(x, ratio);
}

Iq resample_linear(std::span<const Cf> x, double ratio) {
  return lerp_resample<Cf>(x, ratio);
}

Samples resample_average(std::span<const float> x, double ratio) {
  MS_CHECK(ratio > 0.0);
  if (ratio >= 1.0) return resample_linear(x, ratio);
  if (x.empty()) return {};
  const std::size_t n_out =
      static_cast<std::size_t>(std::floor(static_cast<double>(x.size()) * ratio));
  Samples out;
  out.reserve(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    const std::size_t lo = static_cast<std::size_t>(static_cast<double>(i) / ratio);
    std::size_t hi = static_cast<std::size_t>(static_cast<double>(i + 1) / ratio);
    hi = std::min(hi, x.size());
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t j = lo; j < hi; ++j, ++n) acc += x[j];
    out.push_back(n ? static_cast<float>(acc / static_cast<double>(n)) : x[lo]);
  }
  return out;
}

}  // namespace ms
