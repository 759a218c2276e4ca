// Property-style parameterized sweeps over the library's invariants:
// overlay round-trips for every (protocol, κ, γ), BER monotonicity in SNR,
// PHY frame loopbacks over payload sizes, CRC error detection under
// random corruption, and throughput-accounting conservation laws.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "channel/awgn.h"
#include "channel/ber.h"
#include "core/overlay/overlay.h"
#include "core/overlay/throughput.h"
#include "phy/ble/ble.h"
#include "phy/crc.h"
#include "phy/dsss/wifi_b.h"
#include "phy/scrambler.h"
#include "phy/zigbee/zigbee.h"
#include "raw_receivers.h"

namespace ms {
namespace {

// ---------------------------------------------------------------- overlay

using OverlayGrid = std::tuple<Protocol, unsigned /*kappa*/, unsigned /*gamma*/>;

class OverlayGridTest : public ::testing::TestWithParam<OverlayGrid> {};

TEST_P(OverlayGridTest, CleanRoundTripIsExact) {
  const auto [protocol, kappa, gamma] = GetParam();
  Rng rng(1234 + protocol_index(protocol) * 100 + kappa * 10 + gamma);
  auto codec = make_overlay_codec(protocol, OverlayParams{kappa, gamma});
  const auto r = run_overlay_trial(*codec, 10, 45.0, rng);
  EXPECT_EQ(r.productive_ber, 0.0);
  EXPECT_EQ(r.tag_ber, 0.0);
}

TEST_P(OverlayGridTest, DecodedSizesMatchCapacity) {
  const auto [protocol, kappa, gamma] = GetParam();
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

/// Every protocol at κ ∈ {2, 4, 8, 16} and γ ∈ {1, 2, 4} with γ < κ: only
/// then do a sequence's κ − 1 modulatable symbols hold a tag bit.
std::vector<OverlayGrid> overlay_grid() {
  std::vector<OverlayGrid> grid;
  for (Protocol p : kAllProtocols)
    for (unsigned kappa : {2u, 4u, 8u, 16u})
      for (unsigned gamma : {1u, 2u, 4u})
        if (gamma < kappa) grid.emplace_back(p, kappa, gamma);
  return grid;
}

INSTANTIATE_TEST_SUITE_P(KappaGammaSweep, OverlayGridTest,
                         ::testing::ValuesIn(overlay_grid()));

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
  // The default frame is 1 Mbps DBPSK throughout, so the symbol
  // demodulator and the self-synchronizing descrambler recover all of
  // it: 144 preamble bits, the 48-bit PLCP header, then the payload.
  const WifiBPhy phy;
  Rng rng(GetParam());
  const Bytes payload = rng.bytes(GetParam());
  const std::size_t n_bits = 144 + 48 + payload.size() * 8;
  const Bits clear = descramble_11b(
      demodulate_air_bits(phy, phy.modulate_frame(payload), n_bits),
      phy.config().scrambler_seed);
  EXPECT_EQ(Bits(clear.end() - static_cast<long>(payload.size() * 8),
                 clear.end()),
            bytes_to_bits_lsb(payload));
}

INSTANTIATE_TEST_SUITE_P(Sizes, WifiBPayloadSizes,
                         ::testing::Values(1u, 2u, 7u, 16u, 37u, 100u, 255u));

class ZigbeePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZigbeePayloadSizes, FrameRoundTrip) {
  // A raw PHY frame, as the paper's radios hand it over: the 8-symbol
  // preamble, then the payload as 4-bit symbols, low nibble first.
  const ZigbeePhy phy;
  Rng rng(GetParam() * 3 + 1);
  std::vector<uint8_t> symbols(8, 0);
  for (uint8_t b : rng.bytes(GetParam())) {
    symbols.push_back(b & 0x0f);
    symbols.push_back(b >> 4);
  }
  std::vector<uint8_t> detected;
  for (const auto& d :
       phy.detect_symbols(phy.modulate_symbols(symbols), symbols.size()))
    detected.push_back(d.symbol);
  EXPECT_EQ(detected, symbols);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZigbeePayloadSizes,
                         ::testing::Values(1u, 5u, 20u, 60u, 125u));

class BlePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlePayloadSizes, FrameRoundTrip) {
  // A raw PHY frame: preamble and access address, then the payload's
  // air bits, LSB first.
  const BlePhy phy;
  Rng rng(GetParam() * 7 + 5);
  Bits air = phy.preamble_bits();
  const Bits payload = bytes_to_bits_lsb(rng.bytes(GetParam()));
  air.insert(air.end(), payload.begin(), payload.end());
  EXPECT_EQ(demodulate_bits(phy, phy.modulate_bits(air), air.size()), air);
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
    EXPECT_NE(crc16_ccitt(data), crc16_ccitt(mod));
    EXPECT_NE(crc8(data), crc8(mod));
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
    for (double ber : {ber_bpsk(snr), ber_dbpsk(snr),
                       ber_fsk_noncoherent(snr), ber_zigbee(snr)}) {
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
