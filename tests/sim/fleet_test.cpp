// Unit coverage for the many-tag world model: fleet construction and
// validation, capture arbitration semantics, the scale-trial cell, and
// the claim that the Fig 16 collision study is the two-flow special
// case of the fleet engine's loss model.
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "sim/collision_experiment.h"
#include "sim/excitation.h"
#include "sim/fleet/scale_experiment.h"
#include "sim/fleet/tag_fleet.h"

namespace ms {
namespace {

using fleet::Arbitration;
using fleet::CaptureConfig;
using fleet::Contender;
using fleet::SlotOutcome;

TEST(CaptureConfigTest, RejectsInvalidThreshold) {
  CaptureConfig cfg;
  cfg.threshold_db = -1.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.threshold_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cfg.validate(), Error);
  cfg.threshold_db = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cfg.validate(), Error);
  cfg.threshold_db = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ArbitrateTest, EmptySlotIsIdle) {
  const Arbitration a = fleet::arbitrate({}, CaptureConfig{}, -100.0);
  EXPECT_EQ(a.outcome, SlotOutcome::Idle);
}

TEST(ArbitrateTest, SingleContenderIsCleanAgainstNoiseOnly) {
  const Contender c{7, -60.0};
  const Arbitration a = fleet::arbitrate({&c, 1}, CaptureConfig{}, -100.0);
  EXPECT_EQ(a.outcome, SlotOutcome::Clean);
  EXPECT_EQ(a.winner_id, 7u);
  EXPECT_DOUBLE_EQ(a.sinr_db, 40.0);
}

TEST(ArbitrateTest, CaptureExactlyAtTheThresholdMargin) {
  CaptureConfig cfg;
  cfg.threshold_db = 6.0;
  // Margin of exactly 6 dB captures; a hair under collides.
  const std::vector<Contender> captured = {{0, -54.0}, {1, -60.0}};
  EXPECT_EQ(fleet::arbitrate(captured, cfg, -100.0).outcome,
            SlotOutcome::Captured);
  const std::vector<Contender> collided = {{0, -54.5}, {1, -60.0}};
  EXPECT_EQ(fleet::arbitrate(collided, cfg, -100.0).outcome,
            SlotOutcome::Collision);
}

TEST(ArbitrateTest, InterferenceIsTheLinearSumOfLosers) {
  // Two -63 dBm interferers sum to ~-60 dBm; a -50 dBm winner has a
  // ~10 dB margin — captured at 6 dB, collided at 12 dB.
  const std::vector<Contender> c = {{0, -50.0}, {1, -63.0}, {2, -63.0}};
  CaptureConfig cfg;
  cfg.threshold_db = 6.0;
  const Arbitration a = fleet::arbitrate(c, cfg, -100.0);
  EXPECT_EQ(a.outcome, SlotOutcome::Captured);
  EXPECT_NEAR(a.interference_dbm, -59.99, 0.05);
  cfg.threshold_db = 12.0;
  EXPECT_EQ(fleet::arbitrate(c, cfg, -100.0).outcome,
            SlotOutcome::Collision);
}

TEST(ArbitrateTest, DuplicateIdsThrow) {
  const std::vector<Contender> c = {{3, -50.0}, {3, -60.0}};
  EXPECT_THROW(fleet::arbitrate(c, CaptureConfig{}, -100.0), Error);
}

TEST(TagFleetTest, SortsByIdAndRejectsDuplicates) {
  fleet::FleetConfig fc;
  std::vector<fleet::TagSpec> specs(3);
  specs[0].id = 9;
  specs[1].id = 2;
  specs[2].id = 5;
  const fleet::TagFleet f(fc, specs);
  EXPECT_EQ(f.tag(0).id, 2u);
  EXPECT_EQ(f.tag(1).id, 5u);
  EXPECT_EQ(f.tag(2).id, 9u);

  specs[2].id = 2;
  EXPECT_THROW(fleet::TagFleet(fc, specs), Error);
}

TEST(TagFleetTest, ValidationNamesTheKnobAndTag) {
  fleet::FleetConfig fc;
  std::vector<fleet::TagSpec> specs(1);
  specs[0].id = 42;
  specs[0].tx_probability = 1.5;
  try {
    fleet::TagFleet f(fc, specs);
    FAIL() << "expected ms::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tx_probability"), std::string::npos) << what;
    EXPECT_NE(what.find("1.5"), std::string::npos) << what;
    EXPECT_NE(what.find("42"), std::string::npos) << what;
  }
  specs[0].tx_probability = 0.5;
  specs[0].tag_rx_distance_m = 0.0;
  EXPECT_THROW(fleet::TagFleet(fc, specs), Error);
}

TEST(TagFleetTest, DefaultSpecsSpanTheRadiusRangeLogSpaced) {
  const auto specs = fleet::default_fleet_specs(8, 0.5, 4.0);
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_DOUBLE_EQ(specs.front().tag_rx_distance_m, 0.5);
  EXPECT_DOUBLE_EQ(specs.back().tag_rx_distance_m, 4.0);
  for (std::size_t i = 1; i < specs.size(); ++i)
    EXPECT_GT(specs[i].tag_rx_distance_m, specs[i - 1].tag_rx_distance_m);
  // Alternating ZigBee/BLE so the waveform probe superposes at one rate.
  EXPECT_EQ(specs[0].protocol, Protocol::Zigbee);
  EXPECT_EQ(specs[1].protocol, Protocol::Ble);
}

TEST(DefaultTagCountsTest, DoublesUpToAndIncludingMax) {
  EXPECT_EQ(fleet::default_tag_counts(1),
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(fleet::default_tag_counts(8),
            (std::vector<std::size_t>{1, 2, 4, 8}));
  EXPECT_EQ(fleet::default_tag_counts(100),
            (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64, 100}));
}

fleet::ScaleConfig small_scale_config() {
  fleet::ScaleConfig cfg;
  cfg.excitation = fleet_excitation();
  cfg.tag_counts = {1, 4};
  cfg.trials = 2;
  cfg.slots_per_trial = 16;
  cfg.runner.threads = 1;
  return cfg;
}

TEST(ScaleTrialTest, SlotTalliesAreConsistentAndDeterministic) {
  const fleet::ScaleConfig cfg = small_scale_config();
  fleet::FleetConfig fc;
  fc.excitation = cfg.excitation;
  const fleet::TagFleet f(fc, fleet::default_fleet_specs(4, 0.5, 4.0));
  Rng a(12345), b(12345);
  const fleet::ScaleTrial ta = fleet::run_scale_trial(cfg, f, a);
  const fleet::ScaleTrial tb = fleet::run_scale_trial(cfg, f, b);
  EXPECT_EQ(ta.idle + ta.clean + ta.captured + ta.collision, ta.slots);
  EXPECT_EQ(ta.tags, 4u);
  EXPECT_EQ(ta.slots, cfg.slots_per_trial);
  // Same cell stream, same world: the records must agree exactly.
  EXPECT_EQ(std::memcmp(&ta, &tb, sizeof ta), 0);
  // 4 tags <= probe ceiling and every tag always transmits: the
  // waveform probe must have run and measured a real BER.
  EXPECT_GE(ta.waveform_tag_ber, 0.0);
}

TEST(ScaleExperimentTest, RatesAreNormalizedAndGoodputPositive) {
  const auto points = fleet::run_scale_experiment(small_scale_config());
  ASSERT_EQ(points.size(), 2u);
  for (const fleet::ScalePoint& p : points) {
    EXPECT_NEAR(p.clean_rate + p.capture_rate + p.collision_rate +
                    p.idle_rate,
                1.0, 1e-12);
    EXPECT_GE(p.aggregate_goodput_bps, 0.0);
  }
  // A solo tag owns every slot it fills: no collisions, positive
  // goodput, and the solo point outruns any single tag of the 4-fleet.
  EXPECT_DOUBLE_EQ(points[0].collision_rate, 0.0);
  EXPECT_GT(points[0].per_tag_goodput_bps, 0.0);
  EXPECT_GT(points[0].per_tag_goodput_bps, points[1].per_tag_goodput_bps);
}

TEST(CollisionSpecialCaseTest, Fig16LossIsTheFleetOverlapModel) {
  // run_collision()'s time-overlap loss is fleet::airtime_overlap_loss
  // applied to the two flows — the collision experiment is the two-tag
  // special case of the fleet engine, not a parallel implementation.
  const CollisionSetup setup = fig16_time_collision();
  const BackscatterLink link;
  const CollisionResult r = run_collision(setup, link, 1.0);
  const double filter_gain =
      std::pow(10.0, -setup.tag_filter_rejection_db / 10.0);
  const double vulnerability =
      std::min(1.0, setup.collision_vulnerability * filter_gain);
  EXPECT_DOUBLE_EQ(
      r.b_loss_fraction,
      fleet::airtime_overlap_loss(setup.a.airtime_duty(), vulnerability));
  EXPECT_DOUBLE_EQ(
      r.a_loss_fraction,
      fleet::airtime_overlap_loss(setup.b.airtime_duty(), vulnerability));
  // And the helper itself clamps: a saturated interferer wipes out at
  // most the whole flow, never more.
  EXPECT_DOUBLE_EQ(fleet::airtime_overlap_loss(2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(fleet::airtime_overlap_loss(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace ms
