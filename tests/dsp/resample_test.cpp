#include "dsp/resample.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ms {
namespace {

TEST(Resample, LinearIdentityRatio) {
  const Samples x = {0, 1, 2, 3, 4};
  const Samples y = resample_linear(x, 1.0);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6);
}

TEST(Resample, LinearHalfRate) {
  const Samples x = {0, 1, 2, 3, 4, 5, 6, 7};
  const Samples y = resample_linear(x, 0.5);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_NEAR(y[1], 2.0f, 1e-6);
  EXPECT_NEAR(y[2], 4.0f, 1e-6);
}

TEST(Resample, LinearInterpolatesRamp) {
  Samples x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const Samples y = resample_linear(x, 2.0);
  // A ramp stays a ramp under linear interpolation.
  for (std::size_t i = 1; i + 2 < y.size(); ++i)
    EXPECT_NEAR(y[i + 1] - y[i], 0.5f, 1e-4);
}

TEST(Resample, SineSurvivesRateConversion) {
  const double fs = 20e6, f = 1e6;
  Samples x(2000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(std::sin(2 * M_PI * f * i / fs));
  const Samples y = resample_linear(x, 0.125);  // 2.5 Msps
  // Sample 2.5 Msps index k corresponds to time k / 2.5e6.
  for (std::size_t k = 10; k < y.size() - 10; ++k) {
    const double expect = std::sin(2 * M_PI * f * k / 2.5e6);
    EXPECT_NEAR(y[k], expect, 0.07) << k;
  }
}

TEST(Resample, EmptyInput) {
  EXPECT_TRUE(resample_linear(Samples{}, 2.0).empty());
  EXPECT_TRUE(resample_average(Samples{}, 0.5).empty());
}

}  // namespace
}  // namespace ms
