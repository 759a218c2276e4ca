#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ms {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_int(7), 7u);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(5);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_int(5)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BitsAreFair) {
  Rng rng(23);
  const Bits b = rng.bits(100000);
  std::size_t ones = 0;
  for (uint8_t v : b) ones += v;
  EXPECT_NEAR(static_cast<double>(ones) / b.size(), 0.5, 0.01);
}

TEST(Rng, ForkDivergesFromParent) {
  // Even grid cell (0, 0) must not replay its master's own stream.
  Rng parent(29);
  Rng child = parent.fork(0, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child());
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace ms
