// Adversarial workload engine: trace shapes per excitation pattern,
// interferer overlays, config validation, determinism, and the standard
// scenario catalog staying constructible.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "sim/excitation.h"
#include "sim/workload/scenarios.h"
#include "sim/workload/workload.h"
#include "workload_summary.h"

namespace ms {
namespace {

TEST(Workload, SaturatedExcitesEverySlot) {
  WorkloadConfig cfg;
  cfg.n_slots = 500;
  Rng rng(1);
  const auto trace = build_workload(cfg, rng);
  const auto s = summarize_workload(trace);
  EXPECT_EQ(s.slots, 500u);
  EXPECT_EQ(s.excited_slots, 500u);
  EXPECT_EQ(s.interfered_slots, 0u);
  EXPECT_DOUBLE_EQ(s.mean_capacity_scale, 1.0);
  EXPECT_DOUBLE_EQ(s.min_snr_offset_db, 0.0);
  EXPECT_DOUBLE_EQ(s.max_snr_offset_db, 0.0);
}

TEST(Workload, BleAdvertisingIsSparse) {
  WorkloadConfig cfg;
  cfg.pattern = ExcitationPattern::BleAdvertising;
  cfg.n_slots = 8000;
  Rng rng(2);
  const auto s = summarize_workload(build_workload(cfg, rng));
  // One 1-slot event per interval 14 + jitter U[0,10]: ~1 slot in 19.
  EXPECT_GT(s.excited_slots, 0u);
  EXPECT_LT(s.excited_slots, s.slots / 10);
  EXPECT_GT(s.excited_slots, s.slots / 40);
}

TEST(Workload, WifiMixAlternatesBurstsAndGaps) {
  WorkloadConfig cfg;
  cfg.pattern = ExcitationPattern::WifiMix;
  cfg.n_slots = 6000;
  cfg.wifi.classes = {{0.5, 1.0f, 10.0, 2.0}, {0.5, 0.5f, 6.0, 2.0}};
  Rng rng(3);
  const auto trace = build_workload(cfg, rng);
  const auto s = summarize_workload(trace);
  // Bursts dominate (mean 6-10 on vs 2 off) but gaps exist.
  EXPECT_GT(s.excited_slots, s.slots / 2);
  EXPECT_LT(s.excited_slots, s.slots);
  // Both MCS classes appear in the trace.
  std::set<float> scales;
  for (const SlotConditions& c : trace)
    if (c.excitation) scales.insert(c.capacity_scale);
  EXPECT_EQ(scales.size(), 2u);
}

TEST(Workload, DutyCycleMatchesConfiguredRatio) {
  WorkloadConfig cfg;
  cfg.pattern = ExcitationPattern::DutyCycled;
  cfg.n_slots = 20000;
  cfg.duty.on_mean_slots = 300.0;
  cfg.duty.off_mean_slots = 100.0;
  Rng rng(4);
  const auto s = summarize_workload(build_workload(cfg, rng));
  const double duty = static_cast<double>(s.excited_slots) / s.slots;
  EXPECT_NEAR(duty, 0.75, 0.15);
}

TEST(Workload, ParkedInterfererWindowsAreMarked) {
  WorkloadConfig cfg;
  cfg.n_slots = 1000;
  cfg.interferer_windows = {{100, 50}, {400, 100}};
  Rng rng(5);
  const auto trace = build_workload(cfg, rng);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool in_window =
        (i >= 100 && i < 150) || (i >= 400 && i < 500);
    EXPECT_EQ(trace[i].interferer, in_window) << "slot " << i;
  }
  // A window past the end of the trace is simply clipped, not an error.
  cfg.interferer_windows = {{900, 500}};
  Rng rng2(5);
  const auto clipped = build_workload(cfg, rng2);
  EXPECT_TRUE(clipped[950].interferer);
}

TEST(Workload, IidInterfererBackground) {
  WorkloadConfig cfg;
  cfg.n_slots = 4000;
  cfg.interferer_slot_prob = 0.25;
  Rng rng(6);
  const auto s = summarize_workload(build_workload(cfg, rng));
  EXPECT_NEAR(static_cast<double>(s.interfered_slots) / s.slots, 0.25, 0.05);
}

TEST(Workload, TimeVaryingChannelAddsSnrSpread) {
  WorkloadConfig cfg;
  cfg.n_slots = 4000;
  cfg.channel_enabled = true;
  cfg.channel.mobility = {2.0, 1.0, 1.0, 10.0, 1e-3};
  cfg.channel.shadowing = {3.0, 300.0};
  cfg.channel.fading = {8.0, 1e-3, 6.0};
  Rng rng(7);
  const auto s = summarize_workload(build_workload(cfg, rng));
  EXPECT_LT(s.min_snr_offset_db, -3.0);
  EXPECT_NE(s.min_snr_offset_db, s.max_snr_offset_db);
}

TEST(Workload, TraceIsAPureFunctionOfSeedAndConfig) {
  WorkloadConfig cfg;
  cfg.pattern = ExcitationPattern::WifiMix;
  cfg.n_slots = 3000;
  cfg.wifi.classes = {{0.6, 1.0f, 8.0, 2.0}, {0.4, 0.45f, 6.0, 1.5}};
  cfg.interferer_slot_prob = 0.02;
  cfg.channel_enabled = true;
  Rng r1(42), r2(42), r3(43);
  const auto a = build_workload(cfg, r1);
  const auto b = build_workload(cfg, r2);
  const auto c = build_workload(cfg, r3);
  ASSERT_EQ(a.size(), b.size());
  bool differs_from_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].excitation, b[i].excitation) << i;
    ASSERT_EQ(a[i].interferer, b[i].interferer) << i;
    ASSERT_EQ(a[i].capacity_scale, b[i].capacity_scale) << i;
    ASSERT_EQ(a[i].snr_offset_db, b[i].snr_offset_db) << i;
    differs_from_c = differs_from_c || a[i].excitation != c[i].excitation ||
                     a[i].snr_offset_db != c[i].snr_offset_db;
  }
  EXPECT_TRUE(differs_from_c) << "different seeds must differ somewhere";
}

TEST(Workload, ValidationNamesTheKnob) {
  WorkloadConfig cfg;
  cfg.n_slots = 0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = {};
  cfg.pattern = ExcitationPattern::BleAdvertising;
  cfg.ble.interval_slots = 0.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = {};
  cfg.pattern = ExcitationPattern::WifiMix;
  EXPECT_THROW(cfg.validate(), Error);  // no classes
  cfg.wifi.classes = {{-1.0, 1.0f, 8.0, 2.0}};
  EXPECT_THROW(cfg.validate(), Error);  // negative weight
  cfg.wifi.classes = {{1.0, 0.0f, 8.0, 2.0}};
  EXPECT_THROW(cfg.validate(), Error);  // zero capacity

  cfg = {};
  cfg.interferer_slot_prob = 1.5;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = {};
  cfg.interferer_windows = {{100, 0}};  // zero duration
  EXPECT_THROW(cfg.validate(), Error);
  cfg.interferer_windows = {{100, 50}, {120, 10}};  // overlap
  EXPECT_THROW(cfg.validate(), Error);

  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Workload, BuildValidatesBeforeDrawing) {
  WorkloadConfig cfg;
  cfg.n_slots = 0;
  Rng rng(1);
  EXPECT_THROW(build_workload(cfg, rng), Error);
}

TEST(Workload, CapacityScaleFromExcitationPresets) {
  const ExcitationSpec nominal = table4_excitation(Protocol::WifiB);
  EXPECT_FLOAT_EQ(capacity_scale_for(nominal, nominal), 1.0f);
  const float ble = capacity_scale_for(fig16_ble(), nominal);
  EXPECT_GT(ble, 0.0f);
  EXPECT_LE(ble, 1.0f);
}

TEST(WorkloadScenarios, CatalogIsWellFormed) {
  const auto scenarios = standard_scenarios();
  ASSERT_GE(scenarios.size(), 5u);
  std::set<std::string> names;
  for (const WorkloadScenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.description.empty());
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario name";
    EXPECT_NO_THROW(s.workload.validate());
    EXPECT_GT(s.n_readings, 0u);
    EXPECT_GT(s.delivery_floor, 0.0);
    EXPECT_LE(s.delivery_floor, 1.0);
    // The link config must construct (its own validation passes) and
    // the trace must actually excite the tag somewhere.
    EXPECT_NO_THROW(LinkSession{s.link});
    Rng rng(99);
    const auto sum = summarize_workload(build_workload(s.workload, rng));
    EXPECT_GT(sum.excited_slots, 0u);
  }
}

}  // namespace
}  // namespace ms
