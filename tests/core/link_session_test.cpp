#include "core/tag/link_session.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"

namespace ms {
namespace {

LinkSessionConfig base_config() {
  LinkSessionConfig cfg;
  cfg.link_quality.p_good_to_bad = 0.0;
  return cfg;
}

/// `max_slots` slots of clear air: every slot excited, no interferer,
/// no SNR offset, full capacity.
LinkSessionReport run_once(const LinkSessionConfig& cfg, std::uint64_t seed,
                           std::size_t readings = 80,
                           std::size_t max_slots = 2500) {
  LinkSession session(cfg);
  Rng rng(seed);
  return session.run_trace(readings,
                           std::vector<SlotConditions>(max_slots), rng);
}

TEST(LinkSession, FaultFreeDeliversEverything) {
  const LinkSessionReport rep = run_once(base_config(), 1);
  EXPECT_EQ(rep.readings_delivered, rep.readings_offered);
  EXPECT_DOUBLE_EQ(rep.reading_delivery_rate(), 1.0);
  EXPECT_EQ(rep.frames_corrupted, 0u);
  // 96-byte readings in 31-byte frames: 4 slots per reading.
  EXPECT_NEAR(rep.goodput_bits_per_slot(), 192.0, 1.0);
}

TEST(LinkSession, ArqHoldsGoodputAtTenPercentCorruption) {
  LinkSessionConfig cfg = base_config();
  const double clean = run_once(cfg, 2, 160, 4000).goodput_bits_per_slot();

  cfg.frame_corrupt_prob = 0.10;
  const LinkSessionReport faulted = run_once(cfg, 2, 160, 4000);

  // The PR's acceptance bar: ARQ + adaptation keeps ≥ 80% of the
  // fault-free goodput at 10% frame corruption.
  EXPECT_GE(faulted.goodput_bits_per_slot(), 0.80 * clean);
  EXPECT_GE(faulted.recovery_rate(), 0.95);
}

TEST(LinkSession, BlindBaselineVisiblyWorseUnderCorruption) {
  LinkSessionConfig cfg = base_config();
  cfg.frame_corrupt_prob = 0.10;
  const LinkSessionReport arq = run_once(cfg, 3, 160, 4000);

  cfg.arq_enabled = false;
  cfg.adaptation_enabled = false;
  const LinkSessionReport blind = run_once(cfg, 3, 160, 4000);

  // The seed's fire-and-forget path loses whole readings to any
  // single-frame hole; ARQ recovers them.
  EXPECT_LT(blind.reading_delivery_rate(), 0.9);
  EXPECT_GT(arq.reading_delivery_rate(), 0.99);
  EXPECT_GT(arq.goodput_bits_per_slot(), blind.goodput_bits_per_slot());
}

TEST(LinkSession, AdaptationRescuesDeepFade) {
  LinkSessionConfig cfg = base_config();
  cfg.base_snr_db = -12.0;  // γ=2 alone is hopeless here
  const LinkSessionReport adaptive = run_once(cfg, 4, 40, 2500);

  cfg.adaptation_enabled = false;
  const LinkSessionReport fixed = run_once(cfg, 4, 40, 2500);

  EXPECT_GT(adaptive.reading_delivery_rate(), 0.5);
  EXPECT_GT(adaptive.goodput_bits_per_slot(),
            5.0 * (fixed.goodput_bits_per_slot() + 1e-9));
  EXPECT_GT(adaptive.mean_gamma, 2.0);  // the ladder actually engaged
}

TEST(LinkSession, SameSeedSameReport) {
  LinkSessionConfig cfg = base_config();
  cfg.frame_corrupt_prob = 0.15;
  cfg.link_quality.p_good_to_bad = 0.05;
  cfg.ack_loss_prob = 0.02;
  const LinkSessionReport a = run_once(cfg, 42);
  const LinkSessionReport b = run_once(cfg, 42);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.readings_delivered, b.readings_delivered);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
  EXPECT_EQ(a.frames_recovered, b.frames_recovered);
  EXPECT_EQ(a.acks_lost, b.acks_lost);
  EXPECT_EQ(a.duplicates_seen, b.duplicates_seen);
  EXPECT_EQ(a.sender.transmissions, b.sender.transmissions);
  EXPECT_EQ(a.level_switches, b.level_switches);
  EXPECT_DOUBLE_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_DOUBLE_EQ(a.mean_gamma, b.mean_gamma);
}

TEST(LinkSession, ClearAirPinsTheFaultStudyCell) {
  // msbench robustness_faults' first study at 10 % frame corruption
  // (seed 2020, 160 readings, 4000 slots): these tallies are its
  // printed goodput, delivery and recovery for the three link variants.
  struct Expected {
    bool arq, adapt;
    std::size_t slots, delivered, corrupted, recovered, transmissions;
    double bytes;
  };
  const Expected variants[] = {
      {true, true, 777, 160, 61, 61, 706, 15360.0},
      {true, false, 777, 160, 61, 61, 706, 15360.0},
      {false, false, 640, 121, 47, 0, 0, 11616.0},
  };
  for (const Expected& e : variants) {
    LinkSessionConfig cfg = base_config();
    cfg.frame_corrupt_prob = 0.10;
    cfg.arq_enabled = e.arq;
    cfg.adaptation_enabled = e.adapt;
    const LinkSessionReport rep = run_once(cfg, 2020, 160, 4000);
    SCOPED_TRACE(testing::Message() << "arq " << e.arq << " adapt " << e.adapt);
    EXPECT_EQ(rep.slots, e.slots);
    EXPECT_EQ(rep.readings_delivered, e.delivered);
    EXPECT_EQ(rep.frames_corrupted, e.corrupted);
    EXPECT_EQ(rep.frames_recovered, e.recovered);
    EXPECT_EQ(rep.sender.transmissions, e.transmissions);
    EXPECT_EQ(rep.delivered_bytes, e.bytes);
  }
}

TEST(LinkSession, LostAcksCauseDuplicatesNotCorruption) {
  LinkSessionConfig cfg = base_config();
  cfg.ack_loss_prob = 0.1;
  const LinkSessionReport rep = run_once(cfg, 5);
  EXPECT_GT(rep.acks_lost, 0u);
  EXPECT_GT(rep.duplicates_seen, 0u);
  EXPECT_DOUBLE_EQ(rep.reading_delivery_rate(), 1.0);
}

TEST(LinkSession, BusyChannelDefersSlots) {
  LinkSessionConfig cfg = base_config();
  cfg.sense_busy_prob = 0.3;
  const LinkSessionReport rep = run_once(cfg, 6);
  EXPECT_GT(rep.slots_deferred, 0u);
  EXPECT_DOUBLE_EQ(rep.reading_delivery_rate(), 1.0);
}

TEST(LinkSession, TinySlotCapacityThrowsDescriptively) {
  LinkSessionConfig cfg = base_config();
  cfg.sequences_per_slot = 1;  // 3 tag bits per slot at γ=2: no frame fits
  EXPECT_THROW(LinkSession{cfg}, Error);
}

TEST(AdaptivePolicy, StepsUpUnderSustainedNacksAndKeepsWhatWorks) {
  AdaptationConfig cfg;
  AdaptivePolicy policy(cfg);
  EXPECT_EQ(policy.level_index(), 0u);
  // A dead link: NACKs until the policy probes upward.
  for (int i = 0; i < 30 && policy.level_index() == 0; ++i)
    policy.on_frame_result(false);
  EXPECT_GT(policy.level_index(), 0u);
  // The stronger level fixes everything → the probe is kept.
  for (int i = 0; i < 40; ++i) policy.on_frame_result(true);
  EXPECT_FALSE(policy.probing());
  // …and a long clean run walks back down to full rate.
  for (int i = 0; i < 200; ++i) policy.on_frame_result(true);
  EXPECT_EQ(policy.level_index(), 0u);
}

TEST(AdaptivePolicy, RevertsProbeWhenProtectionDoesNotHelp) {
  AdaptationConfig cfg;
  Rng rng(9);
  AdaptivePolicy policy(cfg);
  // 60% loss that no amount of protection fixes (interferer stomping
  // whole frames): the policy must end up back at level 0 with a
  // cooldown, not pinned at the top of the ladder.
  std::size_t frames_at_top = 0;
  const std::size_t top = cfg.ladder.size() - 1;
  for (int i = 0; i < 2000; ++i) {
    policy.on_frame_result(rng.chance(0.4));
    if (policy.level_index() == top) ++frames_at_top;
  }
  EXPECT_LT(frames_at_top, 1000u);  // never camps on the most expensive level
}

TEST(AdaptivePolicy, SingleNackDoesNotPanic) {
  AdaptationConfig cfg;
  AdaptivePolicy policy(cfg);
  for (int i = 0; i < 20; ++i) policy.on_frame_result(true);
  policy.on_frame_result(false);
  for (int i = 0; i < 5; ++i) policy.on_frame_result(true);
  EXPECT_EQ(policy.level_index(), 0u);
  EXPECT_EQ(policy.switches(), 0u);
}

}  // namespace
}  // namespace ms
