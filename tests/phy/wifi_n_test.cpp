#include "phy/ofdm/wifi_n.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/rng.h"
#include "dsp/ops.h"
#include "phy/ofdm/subcarriers.h"

namespace ms {
namespace {

TEST(OfdmSubcarriers, CountsMatchStandard) {
  EXPECT_EQ(ofdm_data_indices().size(), 48u);
  EXPECT_EQ(ofdm_pilot_indices().size(), 4u);
}

TEST(OfdmSubcarriers, NoOverlapBetweenDataAndPilots) {
  for (int d : ofdm_data_indices())
    for (int p : ofdm_pilot_indices()) EXPECT_NE(d, p);
}

TEST(OfdmSubcarriers, BinMapping) {
  EXPECT_EQ(ofdm_bin(0), 0u);
  EXPECT_EQ(ofdm_bin(1), 1u);
  EXPECT_EQ(ofdm_bin(-1), 63u);
  EXPECT_EQ(ofdm_bin(-26), 38u);
}

TEST(OfdmSubcarriers, LtfIsBinary) {
  for (float v : ofdm_ltf_sequence()) EXPECT_TRUE(v == 0.0f || v == 1.0f || v == -1.0f);
}

TEST(OfdmSubcarriers, StfPeriodicity16Samples) {
  const Iq stf = ofdm_stf_time();
  ASSERT_EQ(stf.size(), 160u);
  for (std::size_t i = 0; i + 16 < stf.size(); ++i)
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0f, 1e-4) << i;
}

TEST(OfdmSubcarriers, PilotPolarityFirstValues) {
  // p0..p6 = 1 1 1 1 -1 -1 -1 per the standard.
  const float expect[7] = {1, 1, 1, 1, -1, -1, -1};
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(ofdm_pilot_polarity(i), expect[i]);
}

TEST(WifiN, DataBitsPerSymbolMcs0) {
  // MCS0: BPSK over 48 data subcarriers → N_CBPS = 48, which the
  // rate-1/2 code halves to 24 data bits.
  EXPECT_EQ(wifi_n_coded_bits_per_symbol(Modulation::Bpsk), 48u);
  EXPECT_EQ(wifi_n_coded_bits_per_symbol(Modulation::Qam16), 192u);
}

class WifiNLoopback : public ::testing::TestWithParam<Modulation> {};

TEST_P(WifiNLoopback, FrameRoundTripClean) {
  WifiNConfig cfg;
  cfg.modulation = GetParam();
  const WifiNPhy phy(cfg);
  Rng rng(1);
  const Bytes payload = rng.bytes(100);
  const Iq frame = phy.modulate_frame(payload);
  const auto rx = phy.demodulate_frame(frame, payload.size());
  ASSERT_TRUE(rx.ok);
  EXPECT_EQ(rx.payload, payload);
}

TEST_P(WifiNLoopback, FrameSurvivesModerateNoise) {
  WifiNConfig cfg;
  cfg.modulation = GetParam();
  const WifiNPhy phy(cfg);
  Rng rng(2);
  const Bytes payload = rng.bytes(60);
  const Iq frame = phy.modulate_frame(payload);
  const double snr = GetParam() == Modulation::Qam16 ? 22.0 : 15.0;
  const Iq noisy = add_awgn(frame, snr, rng);
  const auto rx = phy.demodulate_frame(noisy, payload.size());
  ASSERT_TRUE(rx.ok);
  EXPECT_LT(bit_error_rate(bytes_to_bits_lsb(payload),
                           bytes_to_bits_lsb(rx.payload)),
            0.01);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, WifiNLoopback,
                         ::testing::Values(Modulation::Bpsk, Modulation::Qpsk,
                                           Modulation::Qam16));

TEST(WifiN, FrameSurvivesFlatChannelGain) {
  const WifiNPhy phy;
  Rng rng(3);
  const Bytes payload = rng.bytes(50);
  Iq frame = phy.modulate_frame(payload);
  // Complex flat fade: channel estimation must absorb it.
  const Cf h(0.4f, -0.6f);
  for (Cf& v : frame) v *= h;
  const auto rx = phy.demodulate_frame(frame, payload.size());
  ASSERT_TRUE(rx.ok);
  EXPECT_EQ(rx.payload, payload);
}

TEST(WifiN, PreambleIs40us) {
  const WifiNPhy phy;
  EXPECT_EQ(phy.preamble_waveform().size(), WifiNPhy::kPreambleSamples);
  EXPECT_DOUBLE_EQ(WifiNPhy::kPreambleSamples / WifiNPhy::kSampleRate, 40e-6);
}

TEST(WifiN, SymbolDurationIs4us) {
  EXPECT_DOUBLE_EQ(kOfdmSymbolLen / WifiNPhy::kSampleRate, 4e-6);
}

TEST(WifiN, ChannelEstimateFlatForCleanPreamble) {
  const WifiNPhy phy;
  const Iq channel = phy.estimate_channel(phy.preamble_waveform());
  const auto ltf = ofdm_ltf_sequence();
  for (int k = -26; k <= 26; ++k) {
    if (ltf[static_cast<std::size_t>(k + 26)] == 0.0f) continue;
    EXPECT_NEAR(std::abs(channel[ofdm_bin(k)]), 1.0f, 0.02f) << k;
  }
}

TEST(WifiN, SymbolsForPayload) {
  const WifiNPhy phy;  // 24 data bits/symbol
  // 16 (SERVICE) + 8·n + 6 (tail) bits.
  EXPECT_EQ(phy.symbols_for_payload(8), 2u);    // 30 bits → 2 symbols
  EXPECT_EQ(phy.symbols_for_payload(240), 11u);  // 262 → 11
}

TEST(WifiN, CodedSymbolsModulateDemodulate) {
  const WifiNPhy phy;
  Rng rng(5);
  const Bits coded = rng.bits(48 * 10);
  const Iq wave = phy.modulate_coded_symbols(coded);
  const Bits rx = phy.demodulate_symbol_bits(wave, 10);
  EXPECT_EQ(rx, coded);
}

}  // namespace
}  // namespace ms
