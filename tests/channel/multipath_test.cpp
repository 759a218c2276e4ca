#include "channel/multipath.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/timevarying.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/ops.h"

namespace ms {
namespace {

TEST(Multipath, UnitTotalPowerOnAverage) {
  MultipathConfig cfg;
  Rng rng(1);
  double p = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const MultipathChannel ch = sample_multipath(cfg, 20e6, rng);
    for (const Cf& t : ch.taps) p += std::norm(t);
  }
  EXPECT_NEAR(p / n, 1.0, 0.05);
}

TEST(Multipath, KFactorControlsLosShare) {
  Rng rng(2);
  MultipathConfig strong, weak;
  strong.k_factor_db = 12.0;
  weak.k_factor_db = 0.0;
  double los_strong = 0.0, los_weak = 0.0;
  for (int i = 0; i < 500; ++i) {
    los_strong += std::norm(sample_multipath(strong, 20e6, rng).taps[0]);
    los_weak += std::norm(sample_multipath(weak, 20e6, rng).taps[0]);
  }
  // K = 12 dB → LoS share 0.94; K = 0 dB → 0.5.
  EXPECT_GT(los_strong, los_weak * 1.6);
}

TEST(Multipath, DelaysScaleWithSpread) {
  Rng rng(3);
  MultipathConfig cfg;
  cfg.delay_spread_s = 100e-9;
  const MultipathChannel ch = sample_multipath(cfg, 20e6, rng);
  ASSERT_EQ(ch.delays.size(), cfg.n_taps);
  EXPECT_EQ(ch.delays[0], 0u);
  for (std::size_t t = 1; t < ch.delays.size(); ++t)
    EXPECT_GT(ch.delays[t], ch.delays[t - 1]);
  // 100 ns at 20 Msps = 2 samples for the first echo.
  EXPECT_EQ(ch.delays[1], 2u);
}

TEST(Multipath, SingleTapIsPureRotation) {
  Rng rng(4);
  MultipathConfig cfg;
  cfg.n_taps = 1;
  cfg.k_factor_db = 100.0;  // all LoS
  const MultipathChannel ch = sample_multipath(cfg, 20e6, rng);
  const Iq x = {Cf(1, 0), Cf(0, 1), Cf(-1, 0)};
  const Iq y = ch.apply(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i]), std::abs(x[i]), 1e-3);
}

TEST(Multipath, ApplyPreservesLength) {
  Rng rng(5);
  const MultipathChannel ch = sample_multipath(MultipathConfig{}, 8e6, rng);
  const Iq x(100, Cf(1.0f, 0.0f));
  EXPECT_EQ(ch.apply(x).size(), x.size());
}

TEST(Multipath, PowerApproximatelyPreservedThroughChannel) {
  Rng rng(6);
  Iq x(4000);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  const double pin = mean_power(std::span<const Cf>(x));
  double pout = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const MultipathChannel ch = sample_multipath(MultipathConfig{}, 20e6, rng);
    pout += mean_power(std::span<const Cf>(ch.apply(x)));
  }
  EXPECT_NEAR(pout / n / pin, 1.0, 0.1);
}

TEST(Multipath, RejectsZeroTaps) {
  Rng rng(7);
  MultipathConfig cfg;
  cfg.n_taps = 0;
  EXPECT_THROW(sample_multipath(cfg, 20e6, rng), Error);
}

TEST(Multipath, FirstDrawLandsInTheImaginaryPart) {
  // Pins the draw order of every recorded channel: a scattered tap's
  // imaginary part takes the first normal draw, both when the tap is
  // sampled and when the fader steps it.  One echo carries the whole
  // scatter power 1/(1+K).
  MultipathFadingConfig cfg;
  cfg.profile.n_taps = 2;
  const double scatter = 1.0 / (1.0 + db_to_linear(cfg.profile.k_factor_db));
  const double sigma = std::sqrt(scatter / 2.0);
  Rng a(12), b(12);
  MultipathFader fader(cfg, 20e6, a);
  b.uniform();  // LoS phase
  const Cf tap = fader.channel().taps[1];
  EXPECT_FLOAT_EQ(tap.imag(), static_cast<float>(b.normal(0.0, sigma)));
  EXPECT_FLOAT_EQ(tap.real(), static_cast<float>(b.normal(0.0, sigma)));
  b.uniform();  // LoS arrival angle

  fader.step(a);
  const double rho = clarke_rho(cfg.doppler_hz, cfg.step_time_s);
  const double step_sigma = std::sqrt(1.0 - rho * rho) * sigma;
  const double im = rho * tap.imag() + b.normal(0.0, step_sigma);
  const double re = rho * tap.real() + b.normal(0.0, step_sigma);
  EXPECT_FLOAT_EQ(fader.channel().taps[1].imag(), static_cast<float>(im));
  EXPECT_FLOAT_EQ(fader.channel().taps[1].real(), static_cast<float>(re));
}

}  // namespace
}  // namespace ms
