#include "phy/zigbee/zigbee.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "channel/awgn.h"
#include "common/rng.h"
#include "dsp/ops.h"

namespace ms {
namespace {

TEST(ZigbeePn, TableHas16UniqueEntries) {
  const auto pn = zigbee_pn_table();
  ASSERT_EQ(pn.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = i + 1; j < 16; ++j) EXPECT_NE(pn[i], pn[j]);
}

TEST(ZigbeePn, Symbol0MatchesStandard) {
  // 802.15.4 symbol 0 chips packed LSB-first.
  EXPECT_EQ(zigbee_pn_table()[0], 0x744ac39bu);
}

TEST(ZigbeePn, UpperHalfInvertsOddChips) {
  const auto pn = zigbee_pn_table();
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_EQ(pn[8 + k], pn[k] ^ 0xaaaaaaaau);
}

TEST(ZigbeePn, QuasiOrthogonality) {
  // Any two PN words differ in enough chips for robust discrimination.
  const auto pn = zigbee_pn_table();
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = i + 1; j < 16; ++j) {
      const unsigned d = __builtin_popcount(pn[i] ^ pn[j]);
      EXPECT_GE(d, 12u) << i << "," << j;
    }
}

/// The best-matching PN index of each of the first n symbols.
std::vector<uint8_t> hard_symbols(const ZigbeePhy& phy, const Iq& iq,
                                  std::size_t n) {
  std::vector<uint8_t> out;
  for (const auto& d : phy.detect_symbols(iq, n)) out.push_back(d.symbol);
  return out;
}

TEST(Zigbee, SymbolsRoundTripClean) {
  const ZigbeePhy phy;
  std::vector<uint8_t> symbols;
  for (uint8_t s = 0; s < 16; ++s) symbols.push_back(s);
  const Iq wave = phy.modulate_symbols(symbols);
  EXPECT_EQ(hard_symbols(phy, wave, symbols.size()), symbols);
}

TEST(Zigbee, SymbolsSurviveNoise) {
  const ZigbeePhy phy;
  Rng rng(1);
  std::vector<uint8_t> symbols(50);
  for (auto& s : symbols) s = static_cast<uint8_t>(rng.uniform_int(16));
  const Iq noisy = add_awgn(phy.modulate_symbols(symbols), 2.0, rng);
  // 32-chip spreading gives ~15 dB of processing gain.
  EXPECT_EQ(hard_symbols(phy, noisy, symbols.size()), symbols);
}

TEST(Zigbee, PreambleIs128us) {
  const ZigbeePhy phy;
  const Iq p = phy.preamble_waveform();
  EXPECT_NEAR(static_cast<double>(p.size()) / phy.sample_rate_hz(), 128e-6,
              1e-6);
}

TEST(Zigbee, SymbolRateMatchesStandard) {
  const ZigbeePhy phy;
  EXPECT_DOUBLE_EQ(
      static_cast<double>(phy.samples_per_symbol()) / phy.sample_rate_hz(),
      1.0 / kZigbeeSymbolRate);
}

TEST(Zigbee, HalfChipOffsetPresent) {
  // OQPSK: I and Q zero-crossings are offset; at any chip boundary at
  // most one branch changes.  Verify I and Q are not synchronized copies.
  const ZigbeePhy phy;
  const std::vector<uint8_t> symbols = {3, 9};
  const Iq wave = phy.modulate_symbols(symbols);
  double iq_identical = 0.0;
  for (const Cf& v : wave)
    if (std::abs(v.real() - v.imag()) < 1e-6) iq_identical += 1.0;
  EXPECT_LT(iq_identical / wave.size(), 0.9);
}

TEST(Zigbee, DetectReportsPhaseOfFlippedSymbol) {
  const ZigbeePhy phy;
  const std::vector<uint8_t> symbols = {5, 5};
  Iq wave = phy.modulate_symbols(symbols);
  // Flip the second symbol's phase.
  const std::size_t sps = phy.samples_per_symbol();
  for (std::size_t i = sps; i < wave.size(); ++i) wave[i] = -wave[i];
  const auto det = phy.detect_symbols(wave, 2);
  EXPECT_EQ(det[0].symbol, 5);
  EXPECT_EQ(det[1].symbol, 5);  // |corr| unchanged → same PN pick
  const double dphi = std::arg(det[1].corr * std::conj(det[0].corr));
  EXPECT_GT(std::abs(dphi), 2.0);  // ~π apart
}

TEST(Zigbee, ConcurrentFirstDecodesAgree) {
  // A PHY builds its candidate bank on its first decode.  Threads that
  // share one PHY (as a sweep's workers share an OverlayReceiver) and
  // make that first call together must each get the single-thread
  // answer.
  Rng rng(41);
  std::vector<uint8_t> symbols(64);
  for (auto& s : symbols) s = static_cast<uint8_t>(rng.uniform_int(16));
  const Iq noisy = add_awgn(ZigbeePhy().modulate_symbols(symbols), 4.0, rng);
  constexpr int kThreads = 4;
  const auto expected = ZigbeePhy().detect_symbols(noisy, symbols.size());
  for (int round = 0; round < 40; ++round) {
    const ZigbeePhy phy;
    std::latch start(kThreads);
    std::vector<std::vector<ZigbeePhy::SymbolDetect>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = phy.detect_symbols(noisy, symbols.size());
      });
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t].size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[t][i].symbol, expected[i].symbol)
            << "round " << round << ", thread " << t << ", symbol " << i;
        ASSERT_EQ(got[t][i].corr, expected[i].corr)
            << "round " << round << ", thread " << t << ", symbol " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ms
