#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace ms {
namespace {

/// Forward FFT of a copy of `x`.
Iq fft_of(Iq x) {
  fft_inplace(x);
  return x;
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  Iq x(48, Cf(1.0f, 0.0f));
  EXPECT_THROW(fft_inplace(x), Error);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  Iq x(16, Cf(0.0f, 0.0f));
  x[0] = Cf(1.0f, 0.0f);
  const Iq X = fft_of(x);
  for (const Cf& v : X) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
  }
}

TEST(Fft, DcGivesSingleBin) {
  Iq x(32, Cf(1.0f, 0.0f));
  const Iq X = fft_of(x);
  EXPECT_NEAR(X[0].real(), 32.0f, 1e-4);
  for (std::size_t i = 1; i < X.size(); ++i) EXPECT_NEAR(std::abs(X[i]), 0.0f, 1e-4);
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const int k = 5;
  Iq x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 2.0 * M_PI * k * static_cast<double>(i) / n;
    x[i] = Cf(static_cast<float>(std::cos(phi)), static_cast<float>(std::sin(phi)));
  }
  const Iq X = fft_of(x);
  EXPECT_NEAR(std::abs(X[k]), static_cast<float>(n), 1e-3);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != static_cast<std::size_t>(k)) {
      EXPECT_NEAR(std::abs(X[i]), 0.0f, 1e-3);
    }
  }
}

TEST(Fft, InverseRecoversInput) {
  Rng rng(1);
  Iq x(128);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  const Iq y = ifft(fft_of(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-4);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-4);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(2);
  Iq x(256);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  double time_energy = 0.0;
  for (const Cf& v : x) time_energy += std::norm(v);
  const Iq X = fft_of(x);
  double freq_energy = 0.0;
  for (const Cf& v : X) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / x.size(), time_energy, time_energy * 1e-4);
}

TEST(Fft, Linearity) {
  Rng rng(3);
  Iq a(64), b(64), sum(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = Cf(static_cast<float>(rng.normal()), 0.0f);
    b[i] = Cf(0.0f, static_cast<float>(rng.normal()));
    sum[i] = a[i] + b[i];
  }
  const Iq A = fft_of(a), B = fft_of(b), S = fft_of(sum);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_NEAR(std::abs(S[i] - A[i] - B[i]), 0.0f, 1e-4);
}

}  // namespace
}  // namespace ms
