#include "core/overlay/overlay.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/error.h"
#include "core/overlay/ble_overlay.h"
#include "core/overlay/throughput.h"
#include "core/overlay/wifi_b_overlay.h"
#include "core/overlay/wifi_n_overlay.h"
#include "core/overlay/zigbee_overlay.h"

namespace ms {
namespace {

TEST(OverlayParams, TagBitsPerSequence) {
  EXPECT_EQ((OverlayParams{8, 4}).tag_bits_per_sequence(), 1u);
  EXPECT_EQ((OverlayParams{16, 4}).tag_bits_per_sequence(), 3u);
  EXPECT_EQ((OverlayParams{4, 2}).tag_bits_per_sequence(), 1u);
  EXPECT_EQ((OverlayParams{2, 1}).tag_bits_per_sequence(), 1u);
}

TEST(OverlayParams, Table6ModePresets) {
  // Table 6 row values: κ = 8/16 for 802.11b (γ=4), 4/8 for 802.11n (γ=2).
  EXPECT_EQ(mode_params(Protocol::WifiB, OverlayMode::Mode1).kappa, 8u);
  EXPECT_EQ(mode_params(Protocol::WifiB, OverlayMode::Mode2).kappa, 16u);
  EXPECT_EQ(mode_params(Protocol::WifiN, OverlayMode::Mode1).kappa, 4u);
  EXPECT_EQ(mode_params(Protocol::WifiN, OverlayMode::Mode2).kappa, 8u);
  EXPECT_EQ(mode_params(Protocol::Ble, OverlayMode::Mode1).kappa, 8u);
  EXPECT_EQ(mode_params(Protocol::Zigbee, OverlayMode::Mode2).kappa, 8u);
  EXPECT_EQ(mode_params(Protocol::WifiB, OverlayMode::Mode3, 96).kappa, 96u);
}

TEST(OverlayParams, DefaultGammasMatchTable6) {
  EXPECT_EQ(default_gamma(Protocol::WifiB), 4u);
  EXPECT_EQ(default_gamma(Protocol::WifiN), 2u);
  EXPECT_EQ(default_gamma(Protocol::Ble), 4u);
  EXPECT_EQ(default_gamma(Protocol::Zigbee), 2u);
}

class OverlayCleanRoundTrip : public ::testing::TestWithParam<Protocol> {};

TEST_P(OverlayCleanRoundTrip, Mode1Clean) {
  Rng rng(1);
  auto codec =
      make_overlay_codec(GetParam(), mode_params(GetParam(), OverlayMode::Mode1));
  const auto r = run_overlay_trial(*codec, 20, 40.0, rng);
  EXPECT_EQ(r.productive_ber, 0.0) << protocol_name(GetParam());
  EXPECT_EQ(r.tag_ber, 0.0) << protocol_name(GetParam());
}

TEST_P(OverlayCleanRoundTrip, Mode2Clean) {
  Rng rng(2);
  auto codec =
      make_overlay_codec(GetParam(), mode_params(GetParam(), OverlayMode::Mode2));
  const auto r = run_overlay_trial(*codec, 12, 40.0, rng);
  EXPECT_EQ(r.productive_ber, 0.0);
  EXPECT_EQ(r.tag_ber, 0.0);
}

TEST_P(OverlayCleanRoundTrip, SurvivesModerateNoise) {
  Rng rng(3);
  auto codec =
      make_overlay_codec(GetParam(), mode_params(GetParam(), OverlayMode::Mode1));
  const auto r = run_overlay_trial(*codec, 30, 12.0, rng);
  EXPECT_LT(r.productive_ber, 0.05) << protocol_name(GetParam());
  EXPECT_LT(r.tag_ber, 0.05) << protocol_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, OverlayCleanRoundTrip,
                         ::testing::Values(Protocol::WifiB, Protocol::WifiN,
                                           Protocol::Ble, Protocol::Zigbee));

TEST(Overlay, CarrierSpreadsByKappa) {
  // κ identical symbol copies: the carrier is κ× the length of an
  // unspread payload.
  const BleOverlay k8(OverlayParams{8, 4});
  const BleOverlay k4(OverlayParams{4, 4});
  const Bits bits = {1, 0, 1};
  EXPECT_EQ(k8.make_carrier(bits).size(), 2u * k4.make_carrier(bits).size());
}

TEST(Overlay, TagModulateWithoutBitsIsIdentity) {
  Rng rng(4);
  for (Protocol p : kAllProtocols) {
    auto codec = make_overlay_codec(p, mode_params(p, OverlayMode::Mode1));
    const Bits prod = rng.bits(codec->productive_bits_per_sequence() * 4);
    const Iq carrier = codec->make_carrier(prod);
    const Iq out = codec->tag_modulate(carrier, Bits{});
    EXPECT_EQ(out, carrier) << protocol_name(p);
  }
}

TEST(Overlay, AllZeroTagBitsLeaveCarrierUnchanged) {
  Rng rng(5);
  for (Protocol p : kAllProtocols) {
    auto codec = make_overlay_codec(p, mode_params(p, OverlayMode::Mode1));
    const Bits prod = rng.bits(codec->productive_bits_per_sequence() * 4);
    const Iq carrier = codec->make_carrier(prod);
    const Bits zeros(codec->tag_capacity(4), 0);
    EXPECT_EQ(codec->tag_modulate(carrier, zeros), carrier) << protocol_name(p);
  }
}

TEST(Overlay, PhaseFlipPreservesCarrierPower) {
  Rng rng(6);
  const WifiBOverlay codec(OverlayParams{8, 4});
  const Bits prod = rng.bits(8);
  const Iq carrier = codec.make_carrier(prod);
  const Bits ones(codec.tag_capacity(8), 1);
  const Iq mod = codec.tag_modulate(carrier, ones);
  for (std::size_t i = 0; i < carrier.size(); ++i)
    EXPECT_NEAR(std::abs(mod[i]), std::abs(carrier[i]), 1e-5);
}

TEST(Overlay, DecodeRecoversTagDataWithCorruptedFirstSequenceProductive) {
  // The core §2.4 claim: tag data does NOT depend on any other channel;
  // even if we garble one reference symbol, only that sequence's
  // productive bits and tag bits suffer — the rest decode fine.
  Rng rng(7);
  const BleOverlay codec(OverlayParams{8, 4});
  const std::size_t n_seq = 10;
  const Bits prod = rng.bits(n_seq);
  const Bits tag = rng.bits(codec.tag_capacity(n_seq));
  Iq wave = codec.tag_modulate(codec.make_carrier(prod), tag);
  // Kill sequence 0's reference symbol.
  const std::size_t sps = codec.phy().config().samples_per_symbol;
  for (std::size_t i = 0; i < sps; ++i) wave[i] = Cf(0.0f, 0.0f);
  const OverlayDecoded out = codec.decode(wave, n_seq);
  for (std::size_t s = 1; s < n_seq; ++s)
    EXPECT_EQ(out.productive[s], prod[s]) << s;
  for (std::size_t b = 1; b < tag.size(); ++b)
    EXPECT_EQ(out.tag[b], tag[b]) << b;
}

TEST(Overlay, ZigbeeGammaOneIsFragileGammaThreeIsRobust) {
  // §2.4.2 "ZigBee": a π flip damages the half-chip offset; γ = 3
  // fixes it by voting over the post-transient symbols.
  Rng rng(8);
  const ZigbeeOverlay g1(OverlayParams{4, 1});
  const ZigbeeOverlay g3(OverlayParams{7, 3});
  double g1_err = 0.0, g3_err = 0.0;
  for (int t = 0; t < 10; ++t) {
    g1_err += run_overlay_trial(g1, 16, 8.0, rng).tag_ber;
    g3_err += run_overlay_trial(g3, 16, 8.0, rng).tag_ber;
  }
  EXPECT_LE(g3_err, g1_err);
  EXPECT_LT(g3_err / 10.0, 0.02);
}

TEST(Overlay, WifiNReferenceModulationsAllDecode) {
  // Fig 17b: tag BER stable across OFDM-BPSK/QPSK/16QAM reference
  // symbols.
  Rng rng(9);
  for (Modulation m : {Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16}) {
    WifiNConfig phy_cfg;
    phy_cfg.modulation = m;
    const WifiNOverlay codec(OverlayParams{4, 2}, phy_cfg);
    const auto r = run_overlay_trial(codec, 20, 25.0, rng);
    EXPECT_LT(r.tag_ber, 0.01) << static_cast<int>(m);
  }
}

TEST(Overlay, WifiBReferenceModulationsAllDecode) {
  // Fig 17a: DSSS-BPSK, DSSS-DQPSK, CCK-5.5 reference symbols.
  Rng rng(10);
  for (WifiBRate rate : {WifiBRate::Dbpsk1M, WifiBRate::Dqpsk2M,
                         WifiBRate::Cck5_5M}) {
    WifiBConfig phy_cfg;
    phy_cfg.rate = rate;
    const WifiBOverlay codec(OverlayParams{8, 4}, phy_cfg);
    const auto r = run_overlay_trial(codec, 20, 18.0, rng);
    EXPECT_LT(r.tag_ber, 0.01) << static_cast<int>(rate);
    EXPECT_LT(r.productive_ber, 0.01) << static_cast<int>(rate);
  }
}

TEST(Overlay, BleTagShiftIs500kHz) {
  const BleOverlay codec(OverlayParams{8, 4});
  EXPECT_DOUBLE_EQ(codec.tag_shift_hz(), 500e3);  // §2.4.2 "Bluetooth"
}

TEST(Overlay, RejectsTooManyTagBits) {
  Rng rng(11);
  const BleOverlay codec(OverlayParams{8, 4});
  const Iq carrier = codec.make_carrier(rng.bits(4));
  EXPECT_THROW(codec.tag_modulate(carrier, rng.bits(100)), Error);
}

TEST(Overlay, KappaOneRejected) {
  EXPECT_THROW(make_overlay_codec(Protocol::Ble, OverlayParams{1, 1}), Error);
}

TEST(OverlayThroughput, Mode1RoughlyBalanced) {
  // Fig 12 mode 1: productive ≈ tag throughput for BLE/802.11b.
  for (Protocol p : {Protocol::Ble, Protocol::WifiB}) {
    const Throughput t =
        overlay_throughput(p, mode_params(p, OverlayMode::Mode1), 1.0);
    EXPECT_NEAR(t.productive_bps / t.tag_bps, 1.0, 0.05) << protocol_name(p);
  }
}

TEST(OverlayThroughput, Mode2TriplesTagShare) {
  // Fig 12 mode 2: modulatable:reference = 3:1.
  const Throughput t = overlay_throughput(
      Protocol::Ble, mode_params(Protocol::Ble, OverlayMode::Mode2), 1.0);
  EXPECT_NEAR(t.tag_bps / t.productive_bps, 3.0, 0.05);
}

TEST(OverlayThroughput, Mode3KillsProductive) {
  const OverlayParams m3 = mode_params(Protocol::Ble, OverlayMode::Mode3, 512);
  const Throughput t = overlay_throughput(Protocol::Ble, m3, 1.0);
  EXPECT_LT(t.productive_bps, 0.05 * t.tag_bps);
}

TEST(OverlayThroughput, SuccessProbScalesBothStreams) {
  const OverlayParams p = mode_params(Protocol::WifiB, OverlayMode::Mode1);
  const Throughput full = overlay_throughput(Protocol::WifiB, p, 0.8, 1.0);
  const Throughput half = overlay_throughput(Protocol::WifiB, p, 0.8, 0.5);
  EXPECT_NEAR(half.productive_bps, full.productive_bps / 2, 1e-6);
  EXPECT_NEAR(half.tag_bps, full.tag_bps / 2, 1e-6);
}

TEST(OverlayThroughput, AirtimeDutyFromPacketRate) {
  ExcitationSpec e;
  e.protocol = Protocol::Zigbee;
  e.pkt_rate_hz = 20.0;
  e.payload_bytes = 125;
  // 250 symbols × 16 µs + 128 µs preamble ≈ 4.13 ms → duty ≈ 0.083.
  EXPECT_NEAR(e.airtime_duty(), 20.0 * e.packet_airtime_s(), 1e-12);
  EXPECT_NEAR(e.packet_airtime_s(), 4.128e-3, 1e-4);
}

TEST(OverlayThroughput, ThroughputFallsWithDistance) {
  const ExcitationSpec e = [] {
    ExcitationSpec s;
    s.protocol = Protocol::Ble;
    s.pkt_rate_hz = 3000;
    s.payload_bytes = 37;
    return s;
  }();
  const BackscatterLink link;
  const OverlayParams p = mode_params(Protocol::Ble, OverlayMode::Mode1);
  EXPECT_GT(overlay_throughput_at(e, p, link, 4.0).aggregate_bps(),
            overlay_throughput_at(e, p, link, 30.0).aggregate_bps());
}

}  // namespace
}  // namespace ms
