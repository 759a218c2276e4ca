#include "channel/ber.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ms {
namespace {

TEST(Ber, QFunctionKnownValues) {
  EXPECT_NEAR(qfunc(0.0), 0.5, 1e-9);
  EXPECT_NEAR(qfunc(1.0), 0.1587, 1e-3);
  EXPECT_NEAR(qfunc(3.0), 1.35e-3, 1e-4);
}

TEST(Ber, BpskKnownPoints) {
  // BPSK: 10⁻⁵ around Eb/N0 ≈ 9.6 dB.
  EXPECT_NEAR(ber_bpsk(9.6), 1e-5, 5e-6);
  EXPECT_NEAR(ber_bpsk(0.0), 0.0786, 1e-3);
}

TEST(Ber, DbpskKnownPoints) {
  EXPECT_NEAR(ber_dbpsk(0.0), 0.5 * std::exp(-1.0), 1e-6);
}

TEST(Ber, AllCurvesMonotoneDecreasing) {
  for (double snr = -10.0; snr < 20.0; snr += 1.0) {
    EXPECT_GE(ber_bpsk(snr), ber_bpsk(snr + 1.0));
    EXPECT_GE(ber_dbpsk(snr), ber_dbpsk(snr + 1.0));
    EXPECT_GE(ber_fsk_noncoherent(snr), ber_fsk_noncoherent(snr + 1.0));
    EXPECT_GE(ber_zigbee(snr), ber_zigbee(snr + 1.0));
  }
}

TEST(Ber, ModulationOrderingAtFixedEbN0) {
  // Weaker detection needs more energy: coherent beats differential,
  // which beats non-coherent FSK.
  for (double snr : {4.0, 8.0, 12.0}) {
    EXPECT_LT(ber_bpsk(snr), ber_dbpsk(snr));
    EXPECT_LT(ber_dbpsk(snr), ber_fsk_noncoherent(snr));
  }
}

TEST(Ber, ZigbeeSpreadingGainBeatsRawBpskAtLowSnr) {
  // The 32-chip PN words make ZigBee decodable at chip SNRs where plain
  // BPSK at the same per-chip SNR would be hopeless.
  EXPECT_LT(ber_zigbee(-5.0), ber_bpsk(-5.0));
}

TEST(Ber, PerFromBer) {
  EXPECT_DOUBLE_EQ(per_from_ber(0.0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(per_from_ber(1.0, 10), 1.0);
  EXPECT_NEAR(per_from_ber(1e-3, 1000), 1.0 - std::pow(0.999, 1000), 1e-9);
  // Out-of-range BER is clamped.
  EXPECT_DOUBLE_EQ(per_from_ber(1.5, 10), 1.0);
}

}  // namespace
}  // namespace ms
