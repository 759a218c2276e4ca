// Property-style parameterized sweeps over the library's invariants:
// overlay round-trips for every (protocol, κ, γ), BER monotonicity in SNR,
// PHY loopbacks over payload sizes, CRC error detection under random
// corruption, and throughput-accounting conservation laws.
#include <gtest/gtest.h>

#include <tuple>

#include "channel/awgn.h"
#include "channel/ber.h"
#include "core/overlay/overlay.h"
#include "core/overlay/throughput.h"
#include "phy/ble/ble.h"
#include "phy/crc.h"
#include "phy/dsss/wifi_b.h"
#include "phy/zigbee/zigbee.h"

namespace ms {
namespace {

// ---------------------------------------------------------------- overlay

using OverlayGrid = std::tuple<Protocol, unsigned /*kappa*/, unsigned /*gamma*/>;

class OverlayGridTest : public ::testing::TestWithParam<OverlayGrid> {};

TEST_P(OverlayGridTest, CleanRoundTripIsExact) {
  const auto [protocol, kappa, gamma] = GetParam();
  if (kappa < 2 || gamma >= kappa) GTEST_SKIP();
  // γ = 1 ZigBee is documented as broken (offset damage) — §2.4.2.
  if (protocol == Protocol::Zigbee && gamma < 2) GTEST_SKIP();
  Rng rng(1234 + protocol_index(protocol) * 100 + kappa * 10 + gamma);
  auto codec = make_overlay_codec(protocol, OverlayParams{kappa, gamma});
  const auto r = run_overlay_trial(*codec, 10, 45.0, rng);
  EXPECT_EQ(r.productive_ber, 0.0);
  EXPECT_EQ(r.tag_ber, 0.0);
}

TEST_P(OverlayGridTest, DecodedSizesMatchCapacity) {
  const auto [protocol, kappa, gamma] = GetParam();
  if (kappa < 2 || gamma >= kappa) GTEST_SKIP();
  Rng rng(99);
  auto codec = make_overlay_codec(protocol, OverlayParams{kappa, gamma});
  const std::size_t n_seq = 6;
  const Bits prod = rng.bits(n_seq * codec->productive_bits_per_sequence());
  const Bits tag = rng.bits(codec->tag_capacity(n_seq));
  const Iq wave = codec->tag_modulate(codec->make_carrier(prod), tag);
  const OverlayDecoded out = codec->decode(wave, n_seq);
  EXPECT_EQ(out.productive.size(), prod.size());
  EXPECT_EQ(out.tag.size(), tag.size());
}

INSTANTIATE_TEST_SUITE_P(
    KappaGammaSweep, OverlayGridTest,
    ::testing::Combine(::testing::Values(Protocol::WifiB, Protocol::WifiN,
                                         Protocol::Ble, Protocol::Zigbee),
                       ::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(1u, 2u, 4u)));

class OverlaySnrMonotone : public ::testing::TestWithParam<Protocol> {};

TEST_P(OverlaySnrMonotone, TagBerNonIncreasingInSnr) {
  Rng rng(7);
  auto codec =
      make_overlay_codec(GetParam(), mode_params(GetParam(), OverlayMode::Mode1));
  double prev = 1.0;
  for (double snr : {0.0, 6.0, 12.0, 24.0}) {
    double ber = 0.0;
    for (int t = 0; t < 5; ++t)
      ber += run_overlay_trial(*codec, 20, snr, rng).tag_ber;
    ber /= 5.0;
    EXPECT_LE(ber, prev + 0.06) << protocol_name(GetParam()) << " @ " << snr;
    prev = ber;
  }
  EXPECT_LT(prev, 0.01);  // high SNR end decodes cleanly
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, OverlaySnrMonotone,
                         ::testing::Values(Protocol::WifiB, Protocol::WifiN,
                                           Protocol::Ble, Protocol::Zigbee));

// ---------------------------------------------------------------- PHYs

class WifiBPayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WifiBPayloadSizes, FrameRoundTrip) {
  const WifiBPhy phy;
  Rng rng(GetParam());
  const Bytes payload = rng.bytes(GetParam());
  const auto rx = phy.demodulate_frame(phy.modulate_frame(payload));
  ASSERT_TRUE(rx.header_ok);
  EXPECT_EQ(rx.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WifiBPayloadSizes,
                         ::testing::Values(1u, 2u, 7u, 16u, 37u, 100u, 255u));

class ZigbeePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZigbeePayloadSizes, FrameRoundTrip) {
  const ZigbeePhy phy;
  Rng rng(GetParam() * 3 + 1);
  const Bytes payload = rng.bytes(GetParam());
  const auto rx =
      phy.demodulate_frame(phy.modulate_frame(payload), payload.size());
  EXPECT_TRUE(rx.crc_ok);
  EXPECT_EQ(rx.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZigbeePayloadSizes,
                         ::testing::Values(1u, 5u, 20u, 60u, 125u));

class BlePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlePayloadSizes, FrameRoundTrip) {
  const BlePhy phy;
  Rng rng(GetParam() * 7 + 5);
  const Bytes payload = rng.bytes(GetParam());
  const auto rx =
      phy.demodulate_frame(phy.modulate_frame(payload), payload.size());
  EXPECT_TRUE(rx.crc_ok);
  EXPECT_EQ(rx.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlePayloadSizes,
                         ::testing::Values(0u, 1u, 6u, 20u, 31u, 37u));

// ---------------------------------------------------------------- CRCs

TEST(CrcProperty, RandomSingleBitFlipsAlwaysDetected) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes data = rng.bytes(1 + rng.uniform_int(64));
    const std::size_t bit = rng.uniform_int(data.size() * 8);
    Bytes mod = data;
    mod[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32_ieee(data), crc32_ieee(mod));
    EXPECT_NE(crc16_ccitt(data), crc16_ccitt(mod));
    EXPECT_NE(crc24_ble(data), crc24_ble(mod));
    EXPECT_NE(crc16_154(data), crc16_154(mod));
  }
}

TEST(CrcProperty, BurstErrorsUpToWidthDetected) {
  // A CRC of width w detects all burst errors of length ≤ w.
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes data = rng.bytes(32);
    Bytes mod = data;
    const std::size_t start = rng.uniform_int(30 * 8);
    const std::size_t len = 1 + rng.uniform_int(16);  // ≤ 16-bit burst
    for (std::size_t b = start; b < start + len; ++b)
      if (rng.chance(0.7)) mod[b / 8] ^= static_cast<uint8_t>(1u << (b % 8));
    if (mod == data) continue;
    EXPECT_NE(crc16_ccitt(data), crc16_ccitt(mod));
    EXPECT_NE(crc32_ieee(data), crc32_ieee(mod));
  }
}

// ----------------------------------------------------------- throughput

TEST(ThroughputProperty, SymbolAccountingConserved) {
  // productive + tag symbol usage never exceeds the airtime budget:
  // per sequence, 1 reference + γ·tag_bits ≤ κ symbols.
  for (unsigned kappa = 2; kappa <= 32; ++kappa) {
    for (unsigned gamma = 1; gamma <= 8; ++gamma) {
      const OverlayParams params{kappa, gamma};
      EXPECT_LE(1 + gamma * params.tag_bits_per_sequence(), kappa);
    }
  }
}

TEST(ThroughputProperty, AggregateScalesLinearlyWithDuty) {
  const OverlayParams params = mode_params(Protocol::WifiB, OverlayMode::Mode1);
  const double full =
      overlay_throughput(Protocol::WifiB, params, 1.0).aggregate_bps();
  for (double duty : {0.1, 0.25, 0.5, 0.75}) {
    const double t =
        overlay_throughput(Protocol::WifiB, params, duty).aggregate_bps();
    EXPECT_NEAR(t, duty * full, 1e-6);
  }
}

TEST(ThroughputProperty, LargerKappaNeverRaisesProductive) {
  for (Protocol p : kAllProtocols) {
    double prev = 1e18;
    for (unsigned kappa : {2u, 4u, 8u, 16u, 32u}) {
      const OverlayParams params{kappa, default_gamma(p)};
      const double prod =
          overlay_throughput(p, params, 1.0).productive_bps;
      EXPECT_LE(prod, prev + 1e-9);
      prev = prod;
    }
  }
}

// ------------------------------------------------------------- channel

TEST(BerProperty, AllCurvesBoundedByHalf) {
  for (double snr = -20.0; snr <= 30.0; snr += 0.5) {
    for (double ber : {ber_bpsk(snr), ber_dbpsk(snr), ber_dqpsk(snr),
                       ber_qam16(snr), ber_fsk_noncoherent(snr),
                       ber_zigbee(snr)}) {
      EXPECT_GE(ber, 0.0);
      EXPECT_LE(ber, 0.55);
    }
  }
}

TEST(AwgnProperty, MeasuredSnrTracksRequested) {
  Rng rng(17);
  const Iq x(30000, Cf(0.7f, -0.7f));
  for (double snr = 0.0; snr <= 24.0; snr += 6.0) {
    const Iq y = add_awgn(x, snr, rng);
    double noise = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) noise += std::norm(y[i] - x[i]);
    noise /= static_cast<double>(x.size());
    const double measured = 10.0 * std::log10(0.98 / noise);
    EXPECT_NEAR(measured, snr, 0.5);
  }
}

}  // namespace
}  // namespace ms
