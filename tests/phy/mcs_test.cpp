#include "phy/ofdm/mcs.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/error.h"
#include "common/rng.h"
#include "hamming.h"
#include "phy/convolutional.h"
#include "phy/ofdm/wifi_n.h"

namespace ms {
namespace {

TEST(Mcs, TableMatchesStandard) {
  EXPECT_EQ(mcs_info(0).n_dbps, 24u);   // BPSK 1/2
  EXPECT_EQ(mcs_info(4).n_dbps, 144u);  // 16QAM 3/4
  EXPECT_EQ(mcs_info(7).n_dbps, 240u);  // 64QAM 5/6
  EXPECT_DOUBLE_EQ(mcs_info(7).data_rate_bps, 65e6);
  EXPECT_THROW(mcs_info(8), Error);
}

TEST(Mcs, DataRateConsistentWithNdbps) {
  // 3.6 µs... in this simulator symbols are 4 µs (800 ns GI), so
  // rate = n_dbps / 4 µs... the table's headline rates use the standard
  // 4 µs symbol: n_dbps / 4e-6 must be within a GI rounding of the rate.
  for (unsigned i = 0; i < kMcsCount; ++i) {
    const McsInfo& m = mcs_info(i);
    EXPECT_NEAR(m.n_dbps / 4e-6, m.data_rate_bps, m.data_rate_bps * 0.1) << i;
    EXPECT_EQ(m.n_cbps * m.coding_num / m.coding_den, m.n_dbps) << i;
  }
}

TEST(Puncture, RateIdentity) {
  Rng rng(1);
  const Bits coded = rng.bits(200);
  EXPECT_EQ(puncture(coded, 1, 2), coded);
}

TEST(Puncture, OutputLengths) {
  Rng rng(2);
  const Bits coded = rng.bits(120);  // 60 pairs
  EXPECT_EQ(puncture(coded, 2, 3).size(), 90u);   // ×3/4
  EXPECT_EQ(puncture(coded, 3, 4).size(), 80u);   // ×2/3
  EXPECT_EQ(puncture(coded, 5, 6).size(), 72u);   // ×3/5
}

class PunctureRoundTrip
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(PunctureRoundTrip, DepunctureViterbiRecovers) {
  const auto [num, den] = GetParam();
  Rng rng(3);
  Bits data = rng.bits(120);
  for (int i = 0; i < 6; ++i) data.push_back(0);  // tail
  const Bits sent = puncture(conv_encode(data), num, den);
  const Bits restored = depuncture(sent, num, den, data.size());
  EXPECT_EQ(restored.size(), data.size() * 2);
  EXPECT_EQ(viterbi_decode(restored), data);
}

TEST_P(PunctureRoundTrip, SurvivesSparseErrors) {
  const auto [num, den] = GetParam();
  Rng rng(4);
  Bits data = rng.bits(240);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  Bits sent = puncture(conv_encode(data), num, den);
  sent[40] ^= 1;  // two well-separated errors
  sent[160] ^= 1;
  const Bits decoded = viterbi_decode(depuncture(sent, num, den, data.size()));
  EXPECT_EQ(decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Rates, PunctureRoundTrip,
                         ::testing::Values(std::pair{1u, 2u}, std::pair{2u, 3u},
                                           std::pair{3u, 4u},
                                           std::pair{5u, 6u}));

class McsLoopback : public ::testing::TestWithParam<unsigned> {};

TEST_P(McsLoopback, FrameRoundTripClean) {
  const WifiNPhy phy(WifiNConfig::from_mcs(GetParam()));
  Rng rng(10 + GetParam());
  const Bytes payload = rng.bytes(120);
  const auto rx = phy.demodulate_frame(phy.modulate_frame(payload),
                                       payload.size());
  ASSERT_TRUE(rx.ok) << "MCS " << GetParam();
  EXPECT_EQ(rx.payload, payload) << "MCS " << GetParam();
}

TEST_P(McsLoopback, FrameSurvivesHighSnr) {
  const WifiNPhy phy(WifiNConfig::from_mcs(GetParam()));
  Rng rng(20 + GetParam());
  const Bytes payload = rng.bytes(80);
  const Iq noisy = add_awgn(phy.modulate_frame(payload), 30.0, rng);
  const auto rx = phy.demodulate_frame(noisy, payload.size());
  ASSERT_TRUE(rx.ok);
  EXPECT_EQ(rx.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(AllMcs, McsLoopback,
                         ::testing::Range(0u, kMcsCount));

TEST(Mcs, HigherMcsNeedsMoreSnr) {
  // At a fixed mid SNR, MCS0 decodes cleanly while MCS7 shows errors.
  Rng rng(30);
  const Bytes payload = rng.bytes(150);
  auto ber_at = [&](unsigned mcs, double snr) {
    const WifiNPhy phy(WifiNConfig::from_mcs(mcs));
    const Iq noisy = add_awgn(phy.modulate_frame(payload), snr, rng);
    const auto rx = phy.demodulate_frame(noisy, payload.size());
    return bit_error_rate(bytes_to_bits_lsb(payload),
                          bytes_to_bits_lsb(rx.payload));
  };
  EXPECT_LT(ber_at(0, 10.0), 1e-3);
  EXPECT_GT(ber_at(7, 10.0), 1e-2);
}

TEST(Qam64, MapDemapRoundTrip) {
  Rng rng(40);
  const Bits data = rng.bits(6 * 200);
  const Iq pts = constellation_map(data, Modulation::Qam64);
  EXPECT_EQ(constellation_demap(pts, Modulation::Qam64), data);
}

TEST(Qam64, UnitAveragePower) {
  Rng rng(41);
  const Bits data = rng.bits(6 * 5000);
  const Iq pts = constellation_map(data, Modulation::Qam64);
  double p = 0.0;
  for (const Cf& v : pts) p += std::norm(v);
  EXPECT_NEAR(p / pts.size(), 1.0, 0.03);
}

TEST(Qam64, GrayNeighborsDifferInOneBit) {
  // Walk the 8 levels along one axis; adjacent labels differ in 1 bit.
  const Bits labels[8] = {{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {0, 1, 0},
                          {1, 1, 0}, {1, 1, 1}, {1, 0, 1}, {1, 0, 0}};
  for (int i = 0; i + 1 < 8; ++i)
    EXPECT_EQ(hamming_distance(labels[i], labels[i + 1]), 1u) << i;
}

}  // namespace
}  // namespace ms
