#include "dsp/fft.h"

#include <cmath>

#include "common/error.h"

namespace ms {

namespace {

void transform(Iq& x, bool inverse) {
  const std::size_t n = x.size();
  MS_CHECK_MSG(is_pow2(n), "FFT length must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  // Danielson–Lanczos butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Cf wlen(static_cast<float>(std::cos(ang)),
                  static_cast<float>(std::sin(ang)));
    for (std::size_t i = 0; i < n; i += len) {
      Cf w(1.0f, 0.0f);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cf u = x[i + k];
        const Cf v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const float inv = 1.0f / static_cast<float>(n);
    for (Cf& v : x) v *= inv;
  }
}

}  // namespace

void fft_inplace(Iq& x) { transform(x, /*inverse=*/false); }
void ifft_inplace(Iq& x) { transform(x, /*inverse=*/true); }

Iq ifft(std::span<const Cf> x) {
  Iq out(x.begin(), x.end());
  ifft_inplace(out);
  return out;
}

}  // namespace ms
