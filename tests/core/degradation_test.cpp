// Energy-aware graceful degradation: EnergyGovernor / RetryBudget state
// machines, ARQ brownout reset + holdoff jitter bounds, and the link
// session's trace-driven degradation path (dark air, undersized slots,
// interferers, brownout → resync → recover).
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/overlay/arq.h"
#include "core/tag/degradation.h"
#include "core/tag/link_session.h"

namespace ms {
namespace {

// ~50 mJ window, 1 ms slots, 279.5 mW active draw, bright light
// (64.5 µJ harvested per slot).
EnergyPolicyConfig bright_policy() {
  EnergyPolicyConfig e;
  e.enabled = true;
  e.lux = 1.04e5;
  e.resume_fraction = 0.01;
  return e;
}

TEST(EnergyPolicyConfig, ValidationNamesTheKnob) {
  EnergyPolicyConfig e;
  e.slot_time_s = 0.0;
  EXPECT_THROW(e.validate(), Error);
  e = {};
  e.reserve_fraction = 1.5;
  EXPECT_THROW(e.validate(), Error);
  e = {};
  e.active_power_w = -1.0;
  EXPECT_THROW(e.validate(), Error);
  e = {};
  e.lux = -5.0;
  EXPECT_THROW(e.validate(), Error);
  e = {};
  EXPECT_NO_THROW(e.validate());
}

TEST(EnergyGovernor, DisabledPolicyIsTransparent) {
  EnergyGovernor g{EnergyPolicyConfig{}};
  EXPECT_TRUE(g.allow_active());
  EXPECT_FALSE(g.active_step());
  EXPECT_FALSE(g.idle_step());
  EXPECT_FALSE(g.browned_out());
  EXPECT_EQ(g.stats().brownouts, 0u);
}

TEST(EnergyGovernor, ActiveSlotsSpendTheWindow) {
  EnergyPolicyConfig e = bright_policy();
  e.lux = 0.0;  // isolate the discharge
  EnergyGovernor g(e);
  const double before = g.energy_j();
  ASSERT_TRUE(g.allow_active());
  EXPECT_FALSE(g.active_step());
  EXPECT_NEAR(before - g.energy_j(), 0.2795e-3, 1e-9);
  EXPECT_NEAR(g.stats().spent_j, 0.2795e-3, 1e-9);
}

TEST(EnergyGovernor, GovernorDefersBelowTheReserve) {
  EnergyPolicyConfig e = bright_policy();
  e.initial_fraction = 0.01;  // ~0.5 mJ, well under reserve + active
  EnergyGovernor g(e);
  EXPECT_FALSE(g.allow_active());
  EXPECT_FALSE(g.browned_out());  // deferred, not collapsed
}

TEST(EnergyGovernor, BlindUnderfundedSlotCollapses) {
  EnergyPolicyConfig e = bright_policy();
  e.governor = false;
  e.initial_fraction = 0.001;  // far below one active slot
  EnergyGovernor g(e);
  EXPECT_TRUE(g.active_step());  // brownout
  EXPECT_TRUE(g.browned_out());
  EXPECT_DOUBLE_EQ(g.energy_j(), 0.0);
  EXPECT_EQ(g.stats().brownouts, 1u);
  EXPECT_EQ(g.stats().violations, 1u);
}

TEST(EnergyGovernor, RecoversAtTheResumeThreshold) {
  EnergyPolicyConfig e = bright_policy();
  e.governor = false;
  e.initial_fraction = 0.001;
  EnergyGovernor g(e);
  ASSERT_TRUE(g.active_step());
  int slots = 0;
  while (g.browned_out()) {
    ASSERT_LT(slots, 100) << "never recovered";
    if (g.idle_step()) break;  // recovery reported exactly once
    ++slots;
  }
  EXPECT_FALSE(g.browned_out());
  EXPECT_GE(g.energy_j(),
            e.resume_fraction * energy_per_cycle_j(e.harvester) - 1e-9);
}

TEST(EnergyGovernor, ResumeThresholdEqualToBrownoutThreshold) {
  // resume_fraction == 0 puts the resume threshold exactly at the
  // brownout floor: the tag must come back on the very first idle slot
  // instead of hanging dark forever waiting to cross a level it is
  // already at.
  EnergyPolicyConfig e = bright_policy();
  e.governor = false;
  e.initial_fraction = 0.001;
  e.resume_fraction = 0.0;
  EnergyGovernor g(e);
  ASSERT_TRUE(g.active_step());  // collapse
  ASSERT_TRUE(g.browned_out());
  EXPECT_TRUE(g.idle_step());  // recovery reported immediately...
  EXPECT_FALSE(g.browned_out());
  EXPECT_FALSE(g.idle_step());  // ...and exactly once
}

TEST(EnergyGovernor, ZeroCapacityCapacitorIsRejected) {
  // A 0 F capacitor (or a collapsed voltage window) makes the usable
  // energy per cycle zero; the governor would divide the world by it.
  EnergyPolicyConfig e = bright_policy();
  e.harvester.capacitance_f = 0.0;
  try {
    EnergyGovernor g(e);
    FAIL() << "zero-capacity capacitor must be rejected";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("non-positive"),
              std::string::npos)
        << err.what();
    EXPECT_NE(std::string(err.what()).find("harvester"), std::string::npos)
        << err.what();
  }
  e = bright_policy();
  e.harvester.v_stop = e.harvester.v_start;  // empty discharge window
  EXPECT_THROW(EnergyGovernor{e}, Error);
}

TEST(RetryBudget, ExhaustionDuringBrownoutRefillsWhileDark) {
  // A brownout arrives with the retry bucket already empty.  Retries
  // shed (never go negative), and the idle stretch while the capacitor
  // refills also refills the bucket, so the first post-recovery fault
  // is retried instead of shed again.
  EnergyPolicyConfig e = bright_policy();
  e.governor = false;
  e.initial_fraction = 0.001;
  EnergyGovernor g(e);
  RetryBudgetConfig rcfg;
  rcfg.enabled = true;
  rcfg.burst_tokens = 2.0;
  rcfg.tokens_per_slot = 0.25;
  RetryBudget b(rcfg);
  EXPECT_TRUE(b.take());
  EXPECT_TRUE(b.take());  // bucket drained
  ASSERT_TRUE(g.active_step());  // collapse with no tokens left
  ASSERT_TRUE(g.browned_out());
  EXPECT_FALSE(b.take());  // exhausted: shed, not negative
  EXPECT_EQ(b.shed(), 1u);
  int slots = 0;
  while (g.browned_out()) {
    ASSERT_LT(slots, 100) << "never recovered";
    b.step();  // the slot clock keeps ticking while dark
    if (g.idle_step()) break;
    ++slots;
  }
  EXPECT_FALSE(g.browned_out());
  EXPECT_GE(b.tokens(), 1.0) << "dark slots must refill the bucket";
  EXPECT_TRUE(b.take());
  EXPECT_EQ(b.shed(), 1u);
}

TEST(RetryBudget, TokenBucketShedsWhenEmpty) {
  RetryBudgetConfig cfg;
  cfg.enabled = true;
  cfg.burst_tokens = 2.0;
  cfg.tokens_per_slot = 0.5;
  RetryBudget b(cfg);
  EXPECT_TRUE(b.take());
  EXPECT_TRUE(b.take());
  EXPECT_FALSE(b.take());  // empty
  EXPECT_EQ(b.shed(), 1u);
  b.step();
  b.step();  // refilled one whole token
  EXPECT_TRUE(b.take());
  EXPECT_FALSE(b.take());
  EXPECT_EQ(b.shed(), 2u);
}

TEST(RetryBudget, DisabledAlwaysGrants) {
  RetryBudget b{RetryBudgetConfig{}};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.take());
  EXPECT_EQ(b.shed(), 0u);
}

TEST(RetryBudget, ValidationNamesTheKnob) {
  RetryBudgetConfig cfg;
  cfg.tokens_per_slot = -0.1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.burst_tokens = 0.5;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(ArqSender, BrownoutResetDropsStateAndCounts) {
  ArqSender s;
  const std::vector<uint8_t> reading(40, 0xab);
  s.load_reading(1, reading, 16);  // 3 frames
  ASSERT_TRUE(s.poll().has_value());
  s.reset_after_brownout();
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.attempts(), 0u);
  EXPECT_EQ(s.holdoff(), 0u);
  EXPECT_EQ(s.stats().frames_dropped, 3u);
  EXPECT_EQ(s.stats().readings_abandoned, 1u);
  // The session can resume cleanly: load + poll works again.
  s.load_reading(1, reading, 16);
  EXPECT_TRUE(s.poll().has_value());
}

TEST(ArqSender, HoldoffJitterIsBoundedByConfig) {
  ArqConfig cfg;
  cfg.holdoff_jitter_slots = 4;
  ArqSender s(cfg);
  const std::vector<uint8_t> reading(8, 1);
  s.load_reading(1, reading, 16);
  ASSERT_TRUE(s.poll().has_value());
  s.on_nack(4);  // at the bound: fine
  EXPECT_EQ(s.holdoff(), 1u + 4u);
  while (s.holdoff() > 0) s.tick_holdoff();
  ASSERT_TRUE(s.poll().has_value());
  EXPECT_THROW(s.on_nack(5), Error);  // beyond the bound
}

// --- run_trace ---------------------------------------------------------

std::vector<SlotConditions> saturated(std::size_t n) {
  return std::vector<SlotConditions>(n);
}

LinkSessionConfig trace_base() {
  LinkSessionConfig cfg;
  cfg.base_snr_db = 20.0;     // clean link unless the trace says otherwise
  cfg.reading_bytes = 24;     // one frame per reading
  return cfg;
}

TEST(LinkSessionTrace, CleanSaturatedTraceDelivers) {
  LinkSession session(trace_base());
  Rng rng(1);
  const auto rep = session.run_trace(6, saturated(400), rng);
  EXPECT_EQ(rep.readings_offered, 6u);
  EXPECT_EQ(rep.readings_delivered, 6u);
  EXPECT_EQ(rep.brownouts, 0u);
  EXPECT_EQ(rep.slots_dark, 0u);
  // Resolved everything well before the trace ran out.
  EXPECT_LT(rep.slots, 400u);
}

TEST(LinkSessionTrace, DarkSlotsParkTheTag) {
  std::vector<SlotConditions> trace = saturated(300);
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].excitation = (i % 3 == 0);  // 1 excited slot in 3
  LinkSession session(trace_base());
  Rng rng(2);
  const auto rep = session.run_trace(4, trace, rng);
  EXPECT_EQ(rep.readings_delivered, 4u);
  EXPECT_GT(rep.slots_dark, 0u);
}

TEST(LinkSessionTrace, UndersizedSlotsMakeFramesWait) {
  std::vector<SlotConditions> trace = saturated(300);
  for (std::size_t i = 0; i < trace.size(); ++i)
    if (i % 2 == 0) trace[i].capacity_scale = 0.01f;  // too small
  LinkSession session(trace_base());
  Rng rng(3);
  const auto rep = session.run_trace(4, trace, rng);
  EXPECT_EQ(rep.readings_delivered, 4u);
  EXPECT_GT(rep.slots_undersized, 0u);
}

TEST(LinkSessionTrace, NonFiniteCapacityScaleIsANamedError) {
  std::vector<SlotConditions> trace = saturated(20);
  for (SlotConditions& c : trace)
    c.capacity_scale = std::numeric_limits<float>::infinity();
  LinkSession session(trace_base());
  Rng rng(11);
  try {
    session.run_trace(2, trace, rng);
    FAIL() << "an infinite capacity_scale must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("capacity_scale"), std::string::npos)
        << e.what();
  }
}

TEST(LinkSessionTrace, HugeCapacityScaleFitsEveryFrame) {
  std::vector<SlotConditions> huge = saturated(400);
  for (SlotConditions& c : huge) c.capacity_scale = 1e30f;
  LinkSession session(trace_base());
  Rng r1(12), r2(12);
  const auto a = session.run_trace(6, saturated(400), r1);
  const auto b = session.run_trace(6, huge, r2);
  EXPECT_EQ(a.readings_delivered, 6u);
  EXPECT_EQ(b.slots_undersized, 0u);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.slots_deferred, b.slots_deferred);
  EXPECT_EQ(a.readings_offered, b.readings_offered);
  EXPECT_EQ(a.readings_delivered, b.readings_delivered);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
  EXPECT_EQ(a.frames_recovered, b.frames_recovered);
  EXPECT_EQ(a.acks_lost, b.acks_lost);
  EXPECT_EQ(a.duplicates_seen, b.duplicates_seen);
  EXPECT_EQ(a.sender.frames_loaded, b.sender.frames_loaded);
  EXPECT_EQ(a.sender.transmissions, b.sender.transmissions);
  EXPECT_EQ(a.sender.retransmissions, b.sender.retransmissions);
  EXPECT_EQ(a.sender.frames_delivered, b.sender.frames_delivered);
  EXPECT_EQ(a.sender.frames_dropped, b.sender.frames_dropped);
  EXPECT_EQ(a.sender.readings_abandoned, b.sender.readings_abandoned);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.mean_gamma, b.mean_gamma);
  EXPECT_EQ(a.mean_fec_repeats, b.mean_fec_repeats);
  EXPECT_EQ(a.level_switches, b.level_switches);
  EXPECT_EQ(a.final_nack_rate, b.final_nack_rate);
  EXPECT_EQ(a.slots_dark, b.slots_dark);
  EXPECT_EQ(a.slots_undersized, b.slots_undersized);
  EXPECT_EQ(a.brownouts, b.brownouts);
  EXPECT_EQ(a.slots_browned_out, b.slots_browned_out);
  EXPECT_EQ(a.resyncs, b.resyncs);
  EXPECT_EQ(a.retries_shed, b.retries_shed);
  EXPECT_EQ(a.energy_deferrals, b.energy_deferrals);
  EXPECT_EQ(a.energy_violations, b.energy_violations);
  EXPECT_EQ(a.energy_harvested_j, b.energy_harvested_j);
  EXPECT_EQ(a.energy_spent_j, b.energy_spent_j);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recover_slots_total, b.recover_slots_total);
}

TEST(LinkSessionTrace, FrameExactlyFillingTheSlotFits) {
  LinkSessionConfig cfg = trace_base();
  cfg.fec_enabled = false;
  cfg.adaptation_enabled = false;  // fixed γ = 2, no repetition
  cfg.sequences_per_slot = 180;    // 3 tag bits per sequence at γ = 2
  cfg.reading_bytes = 31;          // one full frame: 22 + 31·8 = 270 bits
  LinkSession session(cfg);
  ASSERT_EQ(session.slot_capacity_bits(cfg.fixed.gamma), 540u);
  ASSERT_EQ(session.frame_payload_budget(cfg.fixed), 31u);
  std::vector<SlotConditions> exact = saturated(50);
  std::vector<SlotConditions> under = saturated(50);
  for (SlotConditions& c : exact) c.capacity_scale = 0.5f;  // 270 bits
  for (SlotConditions& c : under)
    c.capacity_scale = std::nextafter(0.5f, 0.0f);  // just below 270
  Rng r1(13), r2(13);
  const auto fits = session.run_trace(1, exact, r1);
  const auto waits = session.run_trace(1, under, r2);
  EXPECT_EQ(fits.slots_undersized, 0u);
  EXPECT_EQ(fits.readings_delivered, 1u);
  EXPECT_EQ(waits.readings_delivered, 0u);
  EXPECT_EQ(waits.slots_undersized, waits.slots);
}

TEST(LinkSessionTrace, SnrOffsetIsApplied) {
  std::vector<SlotConditions> fade = saturated(200);
  for (SlotConditions& c : fade) c.snr_offset_db = -40.0f;  // buried
  LinkSession session(trace_base());
  Rng r1(4), r2(4);
  const auto clean = session.run_trace(4, saturated(200), r1);
  const auto faded = session.run_trace(4, fade, r2);
  EXPECT_EQ(clean.readings_delivered, 4u);
  EXPECT_EQ(faded.readings_delivered, 0u);
  EXPECT_GT(faded.frames_corrupted, 0u);
}

TEST(LinkSessionTrace, CaughtInterferersDeferMissedOnesStomp) {
  std::vector<SlotConditions> trace = saturated(300);
  for (SlotConditions& c : trace) c.interferer = true;
  LinkSessionConfig cfg = trace_base();
  cfg.interferer_cca_prob = 1.0;  // CCA always catches it
  {
    LinkSession session(cfg);
    Rng rng(5);
    const auto rep = session.run_trace(2, trace, rng);
    EXPECT_EQ(rep.readings_delivered, 0u);
    EXPECT_EQ(rep.slots_deferred, rep.slots);  // parked the whole time
  }
  cfg.interferer_cca_prob = 0.0;  // CCA always misses: frames get stomped
  cfg.interferer_stomp_fraction = 1.0;  // the whole coded frame
  {
    LinkSession session(cfg);
    Rng rng(6);
    const auto rep = session.run_trace(2, trace, rng);
    EXPECT_EQ(rep.readings_delivered, 0u);
    EXPECT_GT(rep.frames_corrupted, 0u);
  }
}

TEST(LinkSessionTrace, RetryBudgetShedsRetries) {
  LinkSessionConfig cfg = trace_base();
  cfg.base_snr_db = -20.0;  // nothing decodes: pure retry pressure
  cfg.adaptation_enabled = false;
  cfg.retry_budget.enabled = true;
  cfg.retry_budget.burst_tokens = 2.0;
  cfg.retry_budget.tokens_per_slot = 0.005;
  LinkSession session(cfg);
  Rng rng(7);
  const auto rep = session.run_trace(4, saturated(1500), rng);
  EXPECT_EQ(rep.readings_delivered, 0u);
  EXPECT_GT(rep.retries_shed, 0u);
}

TEST(LinkSessionTrace, BlindEnergySpendBrownsOutAndResyncs) {
  LinkSessionConfig cfg = trace_base();
  cfg.energy = bright_policy();
  cfg.energy.governor = false;
  cfg.energy.initial_fraction = 0.002;  // below one active slot
  LinkSession session(cfg);
  Rng rng(8);
  const auto rep = session.run_trace(8, saturated(2000), rng);
  EXPECT_GT(rep.brownouts, 0u);
  EXPECT_GT(rep.slots_browned_out, 0u);
  EXPECT_GT(rep.resyncs, 0u);
  EXPECT_GT(rep.energy_violations, 0u);
  EXPECT_GT(rep.sender.readings_abandoned, 0u);
  // It recovered and went on delivering after recharge.
  EXPECT_GT(rep.recoveries, 0u);
  EXPECT_GT(rep.readings_delivered, 0u);
  EXPECT_GT(rep.mean_time_to_recover_slots(), 0.0);
}

TEST(LinkSessionTrace, GovernorDefersInsteadOfBrowningOut) {
  LinkSessionConfig cfg = trace_base();
  cfg.energy = bright_policy();
  cfg.energy.governor = true;
  cfg.energy.initial_fraction = 0.002;
  LinkSession session(cfg);
  Rng rng(9);
  const auto rep = session.run_trace(8, saturated(2000), rng);
  EXPECT_EQ(rep.brownouts, 0u);
  EXPECT_GT(rep.energy_deferrals, 0u);
  EXPECT_EQ(rep.readings_delivered, 8u);
  EXPECT_GT(rep.energy_harvested_j, 0.0);
}

TEST(LinkSessionTrace, DeterministicForAGivenSeed) {
  LinkSessionConfig cfg = trace_base();
  cfg.energy = bright_policy();
  cfg.energy.governor = false;
  cfg.energy.initial_fraction = 0.002;
  cfg.retry_budget.enabled = true;
  cfg.arq.holdoff_jitter_slots = 3;
  cfg.link_quality.p_good_to_bad = 0.05;
  LinkSession session(cfg);
  Rng r1(10), r2(10);
  const auto a = session.run_trace(8, saturated(2000), r1);
  const auto b = session.run_trace(8, saturated(2000), r2);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.readings_delivered, b.readings_delivered);
  EXPECT_EQ(a.brownouts, b.brownouts);
  EXPECT_EQ(a.resyncs, b.resyncs);
  EXPECT_EQ(a.retries_shed, b.retries_shed);
  EXPECT_EQ(a.sender.transmissions, b.sender.transmissions);
  EXPECT_DOUBLE_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_DOUBLE_EQ(a.energy_spent_j, b.energy_spent_j);
  EXPECT_DOUBLE_EQ(a.recover_slots_total, b.recover_slots_total);
}

}  // namespace
}  // namespace ms
