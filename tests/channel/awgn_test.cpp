#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "common/units.h"
#include "dsp/ops.h"

namespace ms {
namespace {

TEST(Awgn, AchievesRequestedSnr) {
  Rng rng(1);
  const Iq x(20000, Cf(1.0f, 0.0f));
  for (double snr : {0.0, 10.0, 20.0}) {
    const Iq y = add_awgn(x, snr, rng);
    double noise_power = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      noise_power += std::norm(y[i] - x[i]);
    noise_power /= static_cast<double>(x.size());
    EXPECT_NEAR(linear_to_db(1.0 / noise_power), snr, 0.3) << snr;
  }
}

TEST(Awgn, SilencePassesThrough) {
  Rng rng(2);
  const Iq x(100, Cf(0.0f, 0.0f));
  const Iq y = add_awgn(x, 10.0, rng);
  for (const Cf& v : y) EXPECT_EQ(v, Cf(0.0f, 0.0f));
}

TEST(Awgn, ComplexNoisePower) {
  Rng rng(3);
  const Iq n = complex_noise(50000, 2.0, rng);
  EXPECT_NEAR(mean_power(std::span<const Cf>(n)), 2.0, 0.05);
}

TEST(Awgn, NoiseSplitsEvenlyAcrossIq) {
  Rng rng(4);
  const Iq n = complex_noise(50000, 1.0, rng);
  double pi = 0.0, pq = 0.0;
  for (const Cf& v : n) {
    pi += v.real() * v.real();
    pq += v.imag() * v.imag();
  }
  EXPECT_NEAR(pi / pq, 1.0, 0.05);
}

TEST(Awgn, DeterministicGivenSeed) {
  Rng a(7), b(7);
  const Iq x(100, Cf(1.0f, 1.0f));
  EXPECT_EQ(add_awgn(x, 5.0, a), add_awgn(x, 5.0, b));
}

TEST(Awgn, FirstDrawLandsInTheImaginaryPart) {
  // Pins the draw order of every recorded noise stream: per sample, the
  // imaginary part takes the first normal draw and the real part the
  // second.
  const double sigma = std::sqrt(2.0 / 2.0);
  Rng a(8), b(8);
  const Iq n = complex_noise(3, 2.0, a);
  Rng c(9), d(9);
  const Iq y = add_noise_power(Iq(3, Cf(0.0f, 0.0f)), 2.0, c);
  for (std::size_t i = 0; i < n.size(); ++i) {
    EXPECT_EQ(n[i].imag(), static_cast<float>(b.normal(0.0, sigma))) << i;
    EXPECT_EQ(n[i].real(), static_cast<float>(b.normal(0.0, sigma))) << i;
    EXPECT_EQ(y[i].imag(), static_cast<float>(d.normal(0.0, sigma))) << i;
    EXPECT_EQ(y[i].real(), static_cast<float>(d.normal(0.0, sigma))) << i;
  }
}

/// fn(power) must throw an ms::Error whose message names `value`.
template <typename Fn>
void expect_power_rejected(Fn fn, double power, const char* value) {
  try {
    fn(power);
    ADD_FAILURE() << "accepted noise power " << value;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
        << e.what();
  }
}

TEST(Awgn, ComplexNoiseRejectsBadPower) {
  // A negative or non-finite power once made every sample NaN through
  // the square root; zero stays valid and draws nothing but zeros.
  Rng rng(10);
  auto fn = [&](double p) { return complex_noise(4, p, rng); };
  expect_power_rejected(fn, -1.0, "-1");
  expect_power_rejected(fn, std::nan(""), "nan");
  expect_power_rejected(fn, HUGE_VAL, "inf");
  for (const Cf& v : complex_noise(4, 0.0, rng))
    EXPECT_EQ(v, Cf(0.0f, 0.0f));
}

TEST(Awgn, AddNoisePowerRejectsBadPower) {
  // add_awgn reaches add_noise_power with a NaN power when the signal
  // holds a NaN; that is now the same named error.
  Rng rng(11);
  const Iq x(4, Cf(1.0f, -1.0f));
  auto fn = [&](double p) { return add_noise_power(x, p, rng); };
  expect_power_rejected(fn, -0.5, "-0.5");
  expect_power_rejected(fn, -HUGE_VAL, "-inf");
  expect_power_rejected(fn, std::nan(""), "nan");
  Iq bad = x;
  bad[2] = Cf(std::nanf(""), 0.0f);
  EXPECT_THROW(add_awgn(bad, 10.0, rng), Error);
  EXPECT_EQ(add_noise_power(x, 0.0, rng), x);
}

}  // namespace
}  // namespace ms
