#include "core/ident/streaming.h"

#include <gtest/gtest.h>

#include "sim/ident_experiment.h"

namespace ms {
namespace {

IdentifierConfig streaming_config() {
  IdentifierConfig cfg;
  cfg.templates.adc_rate_hz = 10e6;
  cfg.templates.preprocess_len = 20;
  cfg.templates.match_len = 60;
  cfg.compute = ComputeMode::OneBit;
  return cfg;
}

/// Trial config with a strong (near-tag) signal, the streaming
/// detector's operating regime.
IdentTrialConfig strong_trial() {
  IdentTrialConfig tcfg;
  tcfg.ident = streaming_config();
  tcfg.amp_min = tcfg.amp_max = 1.0;
  return tcfg;
}

/// Trace with two packets separated by a quiet gap.
Samples two_packet_trace(Protocol p1, Protocol p2, std::size_t gap,
                         Rng& rng) {
  IdentTrialConfig tcfg = strong_trial();
  tcfg.jitter_max_s = 0.0;
  Samples t = make_ident_trace(p1, tcfg, rng);
  t.insert(t.end(), gap, 0.005f);  // idle noise floor
  const Samples second = make_ident_trace(p2, tcfg, rng);
  t.insert(t.end(), second.begin(), second.end());
  return t;
}

TEST(Streaming, DetectsSinglePacket) {
  Rng rng(1);
  StreamingIdentifier sid(streaming_config());
  const IdentTrialConfig tcfg = strong_trial();
  const Samples trace = make_ident_trace(Protocol::Zigbee, tcfg, rng);
  const auto events = sid.push(trace);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].protocol.has_value());
  EXPECT_EQ(*events[0].protocol, Protocol::Zigbee);
}

TEST(Streaming, DetectsTwoPacketsWithGap) {
  Rng rng(2);
  StreamingIdentifier sid(streaming_config());
  const Samples trace =
      two_packet_trace(Protocol::WifiN, Protocol::Ble, 3000, rng);
  const auto events = sid.push(trace);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].protocol, Protocol::WifiN);
  EXPECT_EQ(events[1].protocol, Protocol::Ble);
  EXPECT_GT(events[1].trigger_sample, events[0].trigger_sample + 2000);
}

TEST(Streaming, IdleInputProducesNoEvents) {
  Rng rng(3);
  StreamingIdentifier sid(streaming_config());
  Samples idle(5000);
  for (auto& v : idle) v = static_cast<float>(std::abs(rng.normal(0.005, 0.002)));
  EXPECT_TRUE(sid.push(idle).empty());
  EXPECT_LT(sid.active_fraction(), 0.05);
}

TEST(Streaming, ActiveFractionTracksPacketDensity) {
  Rng rng(4);
  StreamingIdentifier sid(streaming_config());
  const Samples trace =
      two_packet_trace(Protocol::Zigbee, Protocol::Zigbee, 20000, rng);
  sid.push(trace);
  // Two capture windows within a mostly idle trace.
  EXPECT_LT(sid.active_fraction(), 0.2);
  EXPECT_GT(sid.active_fraction(), 0.0);
}

TEST(Streaming, AbstainRearmsFasterThanFullHoldoff) {
  Rng rng(8);
  // A cut-short burst, then a real packet arriving while the 40 µs
  // post-classification holdoff (400 samples at 10 Msps) is still
  // running.  A committing detector is blind until the holdoff expires
  // mid-packet and then waits in vain for quiet air, so it sleeps
  // through the second packet entirely.
  IdentTrialConfig tcfg = strong_trial();
  tcfg.jitter_max_s = 0.0;
  const Samples p1 = make_ident_trace(Protocol::Ble, tcfg, rng);
  const Samples p2 = make_ident_trace(Protocol::Ble, tcfg, rng);
  Samples trace(p1.begin(), p1.begin() + 200);
  trace.insert(trace.end(), 60, 0.005f);  // short quiet gap
  trace.insert(trace.end(), p2.begin(), p2.end());

  StreamingIdentifier committing(streaming_config());
  const std::size_t committed = committing.push(trace).size();
  EXPECT_EQ(committed, 1u);

  // Abstaining detector (margin no score can clear): re-arms after
  // abstain_rearm_s (80 samples) and catches the second packet too.
  IdentifierConfig acfg = streaming_config();
  acfg.abstain_margin = 2.1;
  StreamingIdentifier abstaining(acfg);
  const auto events = abstaining.push(trace);
  for (const IdentEvent& ev : events) {
    EXPECT_TRUE(ev.abstained);
    EXPECT_FALSE(ev.protocol.has_value());
  }
  ASSERT_EQ(events.size(), 2u);
  // The re-trigger lands at the second packet's true onset (sample 260),
  // not after the full holdoff.
  EXPECT_EQ(events[1].trigger_sample, 260u);
}

TEST(Streaming, HoldoffPreventsDoubleTrigger) {
  Rng rng(6);
  StreamingIdentifier sid(streaming_config());
  const IdentTrialConfig tcfg = strong_trial();
  // One long packet (ZigBee preamble is 128 µs) must fire exactly once.
  const Samples trace = make_ident_trace(Protocol::Zigbee, tcfg, rng);
  EXPECT_EQ(sid.push(trace).size(), 1u);
}

}  // namespace
}  // namespace ms
