#include "spectrum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "core/overlay/freq_shift.h"
#include "phy/ble/ble.h"

namespace ms {
namespace {

Iq tone(std::size_t n, double f, double fs) {
  Iq x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 2 * M_PI * f * i / fs;
    x[i] = Cf(static_cast<float>(std::cos(phi)), static_cast<float>(std::sin(phi)));
  }
  return x;
}

TEST(Spectrum, TonePeakAtCorrectFrequency) {
  const double fs = 1e6, f = 125e3;
  const Psd psd = welch_psd(tone(4096, f, fs), fs);
  EXPECT_NEAR(psd.frequency(psd.peak_bin()), f, 2 * psd.bin_hz);
}

TEST(Spectrum, NegativeFrequencyResolved) {
  const double fs = 1e6;
  const Psd psd = welch_psd(tone(4096, -200e3, fs), fs);
  EXPECT_NEAR(psd.frequency(psd.peak_bin()), -200e3, 2 * psd.bin_hz);
}

TEST(Spectrum, TotalPowerMatchesParseval) {
  Rng rng(1);
  Iq x(8192);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.normal(0.0, 0.5)),
           static_cast<float>(rng.normal(0.0, 0.5)));
  const Psd psd = welch_psd(x, 1e6);
  const double total = std::accumulate(psd.power.begin(), psd.power.end(), 0.0);
  EXPECT_NEAR(total, 0.5, 0.05);  // mean |x|² = 2·0.25
}

TEST(Spectrum, WhiteNoiseIsFlat) {
  Rng rng(2);
  Iq x(1 << 15);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  const Psd psd = welch_psd(x, 1e6);
  const double mean =
      std::accumulate(psd.power.begin(), psd.power.end(), 0.0) /
      static_cast<double>(psd.power.size());
  for (double p : psd.power) EXPECT_LT(std::abs(p - mean) / mean, 0.8);
}

TEST(Spectrum, GfskOccupiedBandwidthNearOneMHz) {
  // 1 Mbps GFSK with BT 0.5 occupies roughly a megahertz.
  const BlePhy phy;
  Rng rng(3);
  const Iq wave = phy.modulate_bits(rng.bits(2000));
  const Psd psd = welch_psd(wave, phy.sample_rate_hz());
  const double obw = psd.occupied_bandwidth(0.99);
  EXPECT_GT(obw, 0.6e6);
  EXPECT_LT(obw, 2.2e6);
}

TEST(Spectrum, TagShiftImageVisible) {
  // The square-wave shift must place the fundamental image at +Δf and a
  // −9.5 dB third harmonic at +3Δf (§ freq_shift).
  const double fs = 8e6;
  const Iq x = tone(1 << 14, 0.0, fs);
  TagShiftConfig cfg;
  cfg.shift_hz = 1e6;
  cfg.harmonics = 3;
  const Psd psd = welch_psd(tag_square_shift(x, fs, cfg), fs);
  const double p1 = psd.band_power(0.9e6, 1.1e6);
  const double p3 = psd.band_power(2.9e6, 3.1e6);
  EXPECT_NEAR(p1 / p3, 9.0, 1.5);  // 1/3 amplitude → 1/9 power
}

TEST(Spectrum, RejectsBadConfig) {
  const Iq x(512, Cf(1.0f, 0.0f));
  PsdConfig cfg;
  cfg.segment_len = 300;  // not a power of two
  EXPECT_THROW(welch_psd(x, 1e6, cfg), Error);
  cfg.segment_len = 1024;  // longer than the waveform
  EXPECT_THROW(welch_psd(x, 1e6, cfg), Error);
}

}  // namespace
}  // namespace ms
