#include "core/overlay/freq_shift.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "core/overlay/ble_overlay.h"
#include "dsp/fft.h"
#include "dsp/ops.h"

namespace ms {
namespace {

/// Forward FFT of a copy of `x`.
Iq fft_of(Iq x) {
  fft_inplace(x);
  return x;
}

Iq tone(std::size_t n, double f, double fs) {
  Iq x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 2 * M_PI * f * i / fs;
    x[i] = Cf(static_cast<float>(std::cos(phi)), static_cast<float>(std::sin(phi)));
  }
  return x;
}

TEST(FreqShift, FundamentalMovesSpectrum) {
  const double fs = 1024.0;
  const Iq x = tone(1024, 8.0, fs);
  TagShiftConfig cfg;
  cfg.shift_hz = 64.0;
  cfg.harmonics = 1;
  const Iq y = tag_square_shift(x, fs, cfg);
  const Iq Y = fft_of(y);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < Y.size(); ++i)
    if (std::abs(Y[i]) > std::abs(Y[peak])) peak = i;
  EXPECT_EQ(peak, 72u);  // 8 + 64
}

TEST(FreqShift, SquareWaveAmplitudeIs2OverPi) {
  const Iq x = tone(4096, 0.0, 4096.0);
  TagShiftConfig cfg;
  cfg.shift_hz = 128.0;
  cfg.harmonics = 1;
  const Iq y = tag_square_shift(x, 4096.0, cfg);
  EXPECT_NEAR(std::sqrt(mean_power(std::span<const Cf>(y))), 2.0 / M_PI, 0.01);
}

TEST(FreqShift, ThirdHarmonicPresent) {
  const double fs = 4096.0;
  const Iq x = tone(4096, 0.0, fs);
  TagShiftConfig cfg;
  cfg.shift_hz = 128.0;
  cfg.harmonics = 3;
  const Iq Y = fft_of(tag_square_shift(x, fs, cfg));
  // Fundamental at bin 128 (amp 2/π·N), 3rd harmonic at 384 (1/3 of it).
  EXPECT_NEAR(std::abs(Y[384]) / std::abs(Y[128]), 1.0 / 3.0, 0.02);
}

TEST(FreqShift, DownmixUndoesShift) {
  const double fs = 8e6;
  const Iq x = tone(4000, 100e3, fs);
  TagShiftConfig cfg;
  cfg.shift_hz = 1e6;
  cfg.harmonics = 1;
  const Iq shifted = tag_square_shift(x, fs, cfg);
  const Iq back = receiver_downmix(shifted, fs, cfg.shift_hz);
  // Same tone, scaled by 2/π.
  Cf corr(0.0f, 0.0f);
  for (std::size_t i = 0; i < x.size(); ++i) corr += back[i] * std::conj(x[i]);
  EXPECT_NEAR(std::abs(corr) / x.size(), 2.0 / M_PI, 0.02);
}

TEST(FreqShift, OffsetEstimateFindsOscillatorError) {
  const double fs = 8e6;
  const Iq ref = tone(4000, 100e3, fs);
  TagShiftConfig cfg;
  cfg.shift_hz = 1e6;
  cfg.harmonics = 1;
  cfg.oscillator_ppm = 20.0;  // 20 ppm of 2.44 GHz = 48.8 kHz
  cfg.carrier_hz = 2.44e9;
  const Iq shifted = tag_square_shift(ref, fs, cfg);
  const Iq rx = receiver_downmix(shifted, fs, cfg.shift_hz);
  const double est = estimate_offset_hz(rx, ref, fs, 100e3, 81);
  EXPECT_NEAR(est, 48.8e3, 5e3);
}

TEST(FreqShift, AlignedOverlayDecodesThroughShiftChain) {
  // End-to-end: BLE overlay carrier → tag square-wave shift (with
  // oscillator error) → receiver downmix + brute-force alignment →
  // overlay decode.
  Rng rng(1);
  const BleOverlay codec(OverlayParams{8, 4});
  const double fs = codec.sample_rate_hz();
  const std::size_t n_seq = 20;
  const Bits prod = rng.bits(n_seq);
  const Bits tag = rng.bits(codec.tag_capacity(n_seq));
  const Iq wave = codec.tag_modulate(codec.make_carrier(prod), tag);

  TagShiftConfig cfg;
  cfg.shift_hz = 1e6;
  cfg.harmonics = 1;
  cfg.oscillator_ppm = 10.0;
  const Iq shifted = tag_square_shift(wave, fs, cfg);
  const Iq rx = receiver_downmix(shifted, fs, cfg.shift_hz);
  const double offset = estimate_offset_hz(rx, wave, fs, 60e3, 61);
  const Iq aligned = receiver_downmix(rx, fs, 0.0, offset);

  const OverlayDecoded out = codec.decode(aligned, n_seq);
  EXPECT_LT(bit_error_rate(prod, out.productive), 0.01);
  EXPECT_LT(bit_error_rate(tag, out.tag), 0.01);
}

}  // namespace
}  // namespace ms
