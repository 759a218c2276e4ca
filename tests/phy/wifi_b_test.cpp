#include "phy/dsss/wifi_b.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/rng.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"
#include "phy/scrambler.h"
#include "raw_receivers.h"

namespace ms {
namespace {

TEST(Barker, SpreadDespreadRoundTrip) {
  const Cf sym(0.6f, -0.8f);
  const Iq chips = barker_spread(sym);
  ASSERT_EQ(chips.size(), 11u);
  const Cf out = barker_despread(chips);
  EXPECT_NEAR(out.real(), sym.real(), 1e-5);
  EXPECT_NEAR(out.imag(), sym.imag(), 1e-5);
}

TEST(Barker, ProcessingGainSuppressesNoise) {
  Rng rng(1);
  const Cf sym(1.0f, 0.0f);
  Iq chips = barker_spread(sym);
  for (Cf& c : chips)
    c += Cf(static_cast<float>(rng.normal(0.0, 0.5)),
            static_cast<float>(rng.normal(0.0, 0.5)));
  const Cf out = barker_despread(chips);
  // Despreading averages 11 chips: noise σ drops by √11.
  EXPECT_NEAR(out.real(), 1.0f, 0.5f);
  EXPECT_GT(out.real(), 0.5f);
}

TEST(Cck, CodewordHasUnitModulus) {
  const Iq cw = cck_codeword(0.3, 1.1, 2.2, 0.7);
  ASSERT_EQ(cw.size(), kCckChips);
  for (const Cf& c : cw) EXPECT_NEAR(std::abs(c), 1.0f, 1e-5);
}

TEST(Cck, DemapRecovers55Codewords) {
  for (unsigned code = 0; code < 4; ++code) {
    const Bits bits = {static_cast<uint8_t>((code >> 1) & 1),
                       static_cast<uint8_t>(code & 1)};
    double p2, p3, p4;
    cck_data_phases(bits, false, p2, p3, p4);
    const Iq cw = cck_codeword(0.9, p2, p3, p4);
    Cf rot;
    EXPECT_EQ(cck_demap(cw, false, rot), bits) << code;
    EXPECT_NEAR(std::arg(rot), 0.9, 1e-3);
  }
}

TEST(Cck, DemapRecoversAll64At11M) {
  for (unsigned code = 0; code < 64; ++code) {
    Bits bits(6);
    for (int b = 0; b < 6; ++b) bits[b] = (code >> (5 - b)) & 1;
    double p2, p3, p4;
    cck_data_phases(bits, true, p2, p3, p4);
    const Iq cw = cck_codeword(-1.2, p2, p3, p4);
    Cf rot;
    EXPECT_EQ(cck_demap(cw, true, rot), bits) << code;
  }
}

TEST(Dqpsk, IncrementDecideRoundTrip) {
  for (bool odd : {false, true}) {
    for (unsigned v = 0; v < 4; ++v) {
      const uint8_t b0 = (v >> 1) & 1, b1 = v & 1;
      uint8_t r0, r1;
      dqpsk_decide(dqpsk_increment(b0, b1, odd), odd, r0, r1);
      EXPECT_EQ(r0, b0) << v << " odd=" << odd;
      EXPECT_EQ(r1, b1) << v << " odd=" << odd;
    }
  }
}

class WifiBLoopback : public ::testing::TestWithParam<WifiBRate> {};

TEST_P(WifiBLoopback, PayloadRoundTripClean) {
  WifiBConfig cfg;
  cfg.rate = GetParam();
  const WifiBPhy phy(cfg);
  Rng rng(7);
  const unsigned bps = wifi_b_bits_per_symbol(cfg.rate);
  const Bits payload = rng.bits(bps * 64);
  const Iq wave = phy.modulate_payload(payload);
  EXPECT_EQ(descramble_11b(demodulate_air_bits(phy, wave, payload.size()),
                           cfg.scrambler_seed),
            payload);
}

TEST_P(WifiBLoopback, PayloadSurvives10dBSnr) {
  WifiBConfig cfg;
  cfg.rate = GetParam();
  const WifiBPhy phy(cfg);
  Rng rng(8);
  const unsigned bps = wifi_b_bits_per_symbol(cfg.rate);
  const Bits payload = rng.bits(bps * 40);
  const Iq wave = phy.modulate_payload(payload);
  const Iq noisy = add_awgn(wave, 10.0, rng);
  const Bits rx = descramble_11b(
      demodulate_air_bits(phy, noisy, payload.size()), cfg.scrambler_seed);
  EXPECT_LT(bit_error_rate(payload, rx), 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllRates, WifiBLoopback,
                         ::testing::Values(WifiBRate::Dbpsk1M,
                                           WifiBRate::Dqpsk2M,
                                           WifiBRate::Cck5_5M,
                                           WifiBRate::Cck11M));

TEST(WifiBFrame, PreambleDurationMatchesPaper) {
  const WifiBPhy phy;
  // 144-bit long preamble + 48-bit header at 1 Mbps = 192 µs.
  EXPECT_DOUBLE_EQ(static_cast<double>(phy.preamble_waveform().size()) /
                       phy.sample_rate_hz(),
                   192e-6);
}

TEST(WifiB, SampleRate) {
  WifiBConfig cfg;
  cfg.samples_per_chip = 2;
  EXPECT_DOUBLE_EQ(WifiBPhy(cfg).sample_rate_hz(), 22e6);
}

}  // namespace
}  // namespace ms
