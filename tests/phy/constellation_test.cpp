#include "phy/constellation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "hamming.h"
#include "dsp/ops.h"

namespace ms {
namespace {

class ConstellationRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationRoundTrip, MapDemapIsIdentity) {
  Rng rng(11);
  const unsigned bpp = bits_per_point(GetParam());
  const Bits data = rng.bits(bpp * 100);
  const Iq pts = constellation_map(data, GetParam());
  EXPECT_EQ(pts.size(), 100u);
  EXPECT_EQ(constellation_demap(pts, GetParam()), data);
}

TEST_P(ConstellationRoundTrip, UnitAveragePower) {
  Rng rng(12);
  const unsigned bpp = bits_per_point(GetParam());
  const Bits data = rng.bits(bpp * 4000);
  const Iq pts = constellation_map(data, GetParam());
  EXPECT_NEAR(mean_power(std::span<const Cf>(pts)), 1.0, 0.05);
}

TEST_P(ConstellationRoundTrip, SurvivesSmallPerturbation) {
  Rng rng(13);
  const unsigned bpp = bits_per_point(GetParam());
  const Bits data = rng.bits(bpp * 200);
  Iq pts = constellation_map(data, GetParam());
  for (Cf& p : pts)
    p += Cf(static_cast<float>(rng.normal(0.0, 0.05)),
            static_cast<float>(rng.normal(0.0, 0.05)));
  EXPECT_EQ(constellation_demap(pts, GetParam()), data);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, ConstellationRoundTrip,
                         ::testing::Values(Modulation::Bpsk, Modulation::Qpsk,
                                           Modulation::Qam16));

TEST(Constellation, BpskPoints) {
  const Iq p = constellation_map(Bits{0, 1}, Modulation::Bpsk);
  EXPECT_EQ(p[0], Cf(-1.0f, 0.0f));
  EXPECT_EQ(p[1], Cf(1.0f, 0.0f));
}

TEST(Constellation, BitsPerPoint) {
  EXPECT_EQ(bits_per_point(Modulation::Bpsk), 1u);
  EXPECT_EQ(bits_per_point(Modulation::Qpsk), 2u);
  EXPECT_EQ(bits_per_point(Modulation::Qam16), 4u);
}

TEST(Constellation, Qam16GrayNeighborsDifferInOneBit) {
  // Adjacent 16-QAM levels along an axis must differ in exactly one bit.
  const Bits levels[4] = {{0, 0}, {0, 1}, {1, 1}, {1, 0}};  // -3,-1,+1,+3
  for (int i = 0; i + 1 < 4; ++i) {
    const std::size_t d = hamming_distance(levels[i], levels[i + 1]);
    EXPECT_EQ(d, 1u) << i;
  }
}

}  // namespace
}  // namespace ms
