#include "dsp/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ms {
namespace {

TEST(Ops, MeanPowerComplex) {
  const Iq x = {Cf(1, 0), Cf(0, 1), Cf(1, 1)};
  EXPECT_NEAR(mean_power(std::span<const Cf>(x)), (1.0 + 1.0 + 2.0) / 3.0, 1e-6);
  EXPECT_DOUBLE_EQ(mean_power(std::span<const Cf>()), 0.0);
}

TEST(Ops, Envelope) {
  const Iq x = {Cf(3, 4), Cf(0, -2)};
  const Samples e = envelope(x);
  EXPECT_NEAR(e[0], 5.0f, 1e-6);
  EXPECT_NEAR(e[1], 2.0f, 1e-6);
}

TEST(Ops, MeanAndStddev) {
  const Samples x = {1, 2, 3, 4};
  EXPECT_NEAR(mean(x), 2.5, 1e-9);
  EXPECT_NEAR(stddev(x), std::sqrt(1.25), 1e-6);
  EXPECT_DOUBLE_EQ(stddev(Samples{5.0f}), 0.0);
}

TEST(Ops, NormalizeGivesUnitVariance) {
  const Samples x = {1, 5, 9, 13, 2, 8};
  const Samples y = normalize(x);
  EXPECT_NEAR(mean(y), 0.0, 1e-5);
  EXPECT_NEAR(stddev(y), 1.0, 1e-4);
}

TEST(Ops, NormalizeConstantInputIsZeros) {
  const Samples y = normalize(Samples(8, 3.0f));
  for (float v : y) EXPECT_EQ(v, 0.0f);
}

TEST(Ops, PeakAbs) {
  EXPECT_EQ(peak_abs(Samples{-3.0f, 2.0f}), 3.0f);
  EXPECT_EQ(peak_abs(Samples{}), 0.0f);
}

}  // namespace
}  // namespace ms
