#include "phy/ble/ble.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/rng.h"
#include "dsp/ops.h"
#include "raw_receivers.h"

namespace ms {
namespace {

TEST(Ble, ConstantEnvelope) {
  const BlePhy phy;
  Rng rng(1);
  const Iq wave = phy.modulate_bits(rng.bits(100));
  for (const Cf& v : wave) EXPECT_NEAR(std::abs(v), 1.0f, 1e-4);
}

TEST(Ble, BitsRoundTripClean) {
  const BlePhy phy;
  Rng rng(2);
  const Bits bits = rng.bits(400);
  const Iq wave = phy.modulate_bits(bits);
  EXPECT_EQ(demodulate_bits(phy, wave, bits.size()), bits);
}

TEST(Ble, BitsSurvive12dB) {
  const BlePhy phy;
  Rng rng(3);
  const Bits bits = rng.bits(300);
  const Iq noisy = add_awgn(phy.modulate_bits(bits), 12.0, rng);
  EXPECT_LT(bit_error_rate(bits, demodulate_bits(phy, noisy, bits.size())), 0.02);
}

TEST(Ble, FrequencyDeviationMatchesModIndex) {
  // Modulation index 0.5 at 1 Mbps → deviation 250 kHz, f1−f0 = 500 kHz
  // (the §2.4.2 numbers).
  const BlePhy phy;
  EXPECT_DOUBLE_EQ(phy.frequency_deviation_hz(), 250e3);
}

TEST(Ble, SymbolFrequenciesReadDeviation) {
  const BlePhy phy;
  // Long runs reach the full deviation despite Gaussian ISI.
  Bits bits(40, 1);
  bits.insert(bits.end(), 40, 0);
  const Iq wave = phy.modulate_bits(bits);
  const Samples f = phy.symbol_frequencies(wave, bits.size());
  EXPECT_NEAR(f[20], 250e3, 25e3);
  EXPECT_NEAR(f[60], -250e3, 25e3);
}

TEST(Ble, PreambleBitsAlternate) {
  const BlePhy phy;
  const Bits p = phy.preamble_bits();
  ASSERT_EQ(p.size(), 40u);  // 8 preamble + 32 access address
  // 0xAA LSB-first: 0 1 0 1 0 1 0 1.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(p[i], i % 2);
}

TEST(Ble, PreambleDurationIs8usPlusAA) {
  const BlePhy phy;
  const Iq w = phy.preamble_waveform();
  EXPECT_DOUBLE_EQ(static_cast<double>(w.size()) / phy.sample_rate_hz(), 40e-6);
}

}  // namespace
}  // namespace ms
