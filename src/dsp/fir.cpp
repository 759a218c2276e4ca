#include "dsp/fir.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace ms {

std::vector<float> design_lowpass(double cutoff, std::size_t taps) {
  MS_CHECK(cutoff > 0.0 && cutoff < 0.5);
  MS_CHECK(taps >= 3 && taps % 2 == 1);
  std::vector<float> h(taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc =
        t == 0.0 ? 2.0 * cutoff : std::sin(2.0 * M_PI * cutoff * t) / (M_PI * t);
    const double w =
        0.54 - 0.46 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                               static_cast<double>(taps - 1));
    h[i] = static_cast<float>(sinc * w);
    sum += h[i];
  }
  for (auto& v : h) v = static_cast<float>(v / sum);  // unity DC gain
  return h;
}

std::vector<float> design_gaussian(double bt, std::size_t sps,
                                   std::size_t span_symbols) {
  MS_CHECK(bt > 0.0);
  MS_CHECK(sps >= 1);
  MS_CHECK(span_symbols >= 1);
  const std::size_t taps = sps * span_symbols + 1;
  std::vector<float> h(taps);
  // Standard Gaussian filter: h(t) ∝ exp(-2π²B²t²/ln2), t in symbol units.
  const double a = 2.0 * M_PI * M_PI * bt * bt / std::log(2.0);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = (static_cast<double>(i) - mid) / static_cast<double>(sps);
    h[i] = static_cast<float>(std::exp(-a * t * t));
    sum += h[i];
  }
  for (auto& v : h) v = static_cast<float>(v / sum);
  return h;
}

namespace {

using F4 = float __attribute__((vector_size(16)));
constexpr std::size_t kBlock = 16;  // outputs per block: four F4 accumulators

// IEEE 754 leaves the sign of an arithmetic NaN open, and GCC may commute
// a float add, so one NaN could leave as -nan on one build and +nan on
// another.  Every output is stored through canonical(), which turns any
// NaN into the canonical quiet NaN and leaves every other value alone.
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
float canonical(float v) { return v == v ? v : kNan; }
Cf canonical(Cf v) { return {canonical(v.real()), canonical(v.imag())}; }
F4 canonical(F4 v) { return v == v ? v : F4{kNan, kNan, kNan, kNan}; }

/// Output i of the "same"-length convolution, skipping the taps whose
/// input index falls outside x.  Only the outputs whose window overhangs
/// an edge come here.
template <typename T>
T convolve_at(std::span<const T> x, std::span<const float> taps,
              std::size_t i) {
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps.size() / 2);
  T acc{};
  for (std::size_t k = 0; k < taps.size(); ++k) {
    const std::ptrdiff_t j =
        static_cast<std::ptrdiff_t>(i) + delay - static_cast<std::ptrdiff_t>(k);
    if (j >= 0 && j < static_cast<std::ptrdiff_t>(x.size()))
      acc += x[static_cast<std::size_t>(j)] * taps[k];
  }
  return acc;
}

/// Real FIR over a float stream, for outputs whose window lies inside it:
///   out[m] = Σ_k in[m + stride·(L/2 − k)] · taps[k],   m in [lo, hi).
/// Every output starts at +0.0f and adds its taps in k order, exactly as
/// convolve_at does, so vectorizing across 16 neighbouring outputs never
/// reassociates a sum.  A complex signal is this FIR over its interleaved
/// floats with stride 2.
void fir_interior(const float* in, float* out, std::size_t lo, std::size_t hi,
                  std::span<const float> taps, std::size_t stride) {
  const std::size_t reach = stride * (taps.size() / 2);
  std::size_t m = lo;
  for (; m + kBlock <= hi; m += kBlock) {
    F4 a0 = {}, a1 = {}, a2 = {}, a3 = {};
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const float* p = in + (m + reach - stride * k);
      const F4 t = {taps[k], taps[k], taps[k], taps[k]};
      F4 x0, x1, x2, x3;
      std::memcpy(&x0, p, sizeof(F4));
      std::memcpy(&x1, p + 4, sizeof(F4));
      std::memcpy(&x2, p + 8, sizeof(F4));
      std::memcpy(&x3, p + 12, sizeof(F4));
      a0 += x0 * t;
      a1 += x1 * t;
      a2 += x2 * t;
      a3 += x3 * t;
    }
    a0 = canonical(a0);
    a1 = canonical(a1);
    a2 = canonical(a2);
    a3 = canonical(a3);
    std::memcpy(out + m, &a0, sizeof(F4));
    std::memcpy(out + m + 4, &a1, sizeof(F4));
    std::memcpy(out + m + 8, &a2, sizeof(F4));
    std::memcpy(out + m + 12, &a3, sizeof(F4));
  }
  for (; m < hi; ++m) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < taps.size(); ++k)
      acc += in[m + reach - stride * k] * taps[k];
    out[m] = canonical(acc);
  }
}

template <typename T>
std::vector<T> convolve_same(std::span<const T> x, std::span<const float> taps) {
  MS_CHECK(!taps.empty());
  const std::size_t n = x.size();
  const std::size_t half = taps.size() / 2;
  // Outputs [lo, hi) see every tap; the first and last `half` may not.
  const std::size_t lo = std::min(half, n);
  const std::size_t hi = std::max(lo, n - lo);
  std::vector<T> out(n, T{});
  for (std::size_t i = 0; i < lo; ++i)
    out[i] = canonical(convolve_at(x, taps, i));
  // std::complex<float> is layout-compatible with float[2].
  constexpr std::size_t w = sizeof(T) / sizeof(float);
  fir_interior(reinterpret_cast<const float*>(x.data()),
               reinterpret_cast<float*>(out.data()), w * lo, w * hi, taps, w);
  for (std::size_t i = hi; i < n; ++i)
    out[i] = canonical(convolve_at(x, taps, i));
  return out;
}

}  // namespace

Samples fir_filter(std::span<const float> x, std::span<const float> taps) {
  return convolve_same<float>(x, taps);
}

Iq fir_filter(std::span<const Cf> x, std::span<const float> taps) {
  return convolve_same<Cf>(x, taps);
}

}  // namespace ms
