#include "dsp/mixer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fft.h"

namespace ms {
namespace {

/// Forward FFT of a copy of `x`.
Iq fft_of(Iq x) {
  fft_inplace(x);
  return x;
}

Iq tone(std::size_t n, double freq_hz, double fs) {
  Iq x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 2.0 * M_PI * freq_hz * static_cast<double>(i) / fs;
    x[i] = Cf(static_cast<float>(std::cos(phi)), static_cast<float>(std::sin(phi)));
  }
  return x;
}

TEST(Mixer, FrequencyShiftMovesSpectralPeak) {
  const double fs = 64.0;
  const Iq x = tone(64, 4.0, fs);          // bin 4
  const Iq y = frequency_shift(x, 8.0, fs);  // shift to bin 12
  const Iq Y = fft_of(y);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < Y.size(); ++i)
    if (std::abs(Y[i]) > std::abs(Y[peak])) peak = i;
  EXPECT_EQ(peak, 12u);
}

TEST(Mixer, FrequencyShiftPreservesMagnitude) {
  const Iq x = tone(1000, 3.0, 100.0);
  const Iq y = frequency_shift(x, 17.0, 100.0);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(std::abs(y[i]), 1.0f, 1e-3);
}

TEST(Mixer, NegativeShiftUndoesPositive) {
  const Iq x = tone(512, 5.0, 100.0);
  const Iq y = frequency_shift(frequency_shift(x, 20.0, 100.0), -20.0, 100.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0f, 1e-3);
}

TEST(Mixer, DiscriminatorReadsToneFrequency) {
  const double fs = 8e6;
  const double f = 250e3;
  const Iq x = tone(4000, f, fs);
  const Samples d = discriminate(x, fs);
  ASSERT_EQ(d.size(), x.size() - 1);
  double acc = 0.0;
  for (float v : d) acc += v;
  EXPECT_NEAR(acc / d.size(), f, f * 0.01);
}

TEST(Mixer, DiscriminatorSignFollowsFrequencySign) {
  const Iq x = tone(1000, -100e3, 8e6);
  const Samples d = discriminate(x, 8e6);
  for (float v : d) EXPECT_LT(v, 0.0f);
}

TEST(Mixer, DiscriminatorShortInput) {
  EXPECT_TRUE(discriminate(Iq{}, 1e6).empty());
  EXPECT_TRUE(discriminate(Iq{Cf(1, 0)}, 1e6).empty());
}

}  // namespace
}  // namespace ms
