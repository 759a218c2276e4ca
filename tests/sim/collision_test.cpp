#include "sim/collision_experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace ms {
namespace {

TEST(Collision, TimeCollisionHurtsLightFlowMost) {
  // Fig 16b: BLE drops 278 → 92 kbps; 802.11n barely changes.
  const CollisionSetup setup = fig16_time_collision();
  const BackscatterLink link;
  const CollisionResult r = run_collision(setup, link, 4.0);
  // BLE loses most of its throughput…
  EXPECT_LT(r.b_collided.aggregate_bps(), 0.5 * r.b_solo.aggregate_bps());
  // …while the heavy 11n flow loses only a few percent.
  EXPECT_GT(r.a_collided.aggregate_bps(), 0.9 * r.a_solo.aggregate_bps());
}

TEST(Collision, BleDropMagnitudeMatchesFig16) {
  const CollisionSetup setup = fig16_time_collision();
  const BackscatterLink link;
  const CollisionResult r = run_collision(setup, link, 4.0);
  // Paper: 278 → 92 kbps (keep ≈ 1/3).
  const double keep =
      r.b_collided.aggregate_bps() / r.b_solo.aggregate_bps();
  EXPECT_NEAR(keep, 92.0 / 278.0, 0.15);
}

TEST(Collision, FrequencyCollisionHarmless) {
  // Fig 16d: ZigBee and 802.11n on adjacent channels, no time overlap —
  // ordered matching separates them and neither loses throughput.
  const CollisionSetup setup = fig16_frequency_collision();
  const BackscatterLink link;
  const CollisionResult r = run_collision(setup, link, 4.0);
  EXPECT_DOUBLE_EQ(r.a_collided.aggregate_bps(), r.a_solo.aggregate_bps());
  EXPECT_DOUBLE_EQ(r.b_collided.aggregate_bps(), r.b_solo.aggregate_bps());
}

TEST(Collision, LossFractionsBounded) {
  CollisionSetup setup = fig16_time_collision();
  setup.a.pkt_rate_hz = 1e7;  // pathological duty
  const BackscatterLink link;
  const CollisionResult r = run_collision(setup, link, 4.0);
  EXPECT_LE(r.b_loss_fraction, 1.0);
  EXPECT_GE(r.b_collided.aggregate_bps(), 0.0);
}

TEST(CollisionSpecialCaseTest, Fig16LossIsTheFleetOverlapModel) {
  // run_collision()'s time-overlap loss is airtime_overlap_loss applied
  // to the two flows, with the vulnerability the tag filter leaves.
  const CollisionSetup setup = fig16_time_collision();
  const BackscatterLink link;
  const CollisionResult r = run_collision(setup, link, 1.0);
  const double filter_gain =
      std::pow(10.0, -setup.tag_filter_rejection_db / 10.0);
  const double vulnerability =
      std::min(1.0, setup.collision_vulnerability * filter_gain);
  EXPECT_DOUBLE_EQ(
      r.b_loss_fraction,
      airtime_overlap_loss(setup.a.airtime_duty(), vulnerability));
  EXPECT_DOUBLE_EQ(
      r.a_loss_fraction,
      airtime_overlap_loss(setup.b.airtime_duty(), vulnerability));
  // And the helper itself clamps: a saturated interferer wipes out at
  // most the whole flow, never more.
  EXPECT_DOUBLE_EQ(airtime_overlap_loss(2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(airtime_overlap_loss(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace ms
