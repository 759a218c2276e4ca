#include "analog/adc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analog/power.h"

namespace ms {
namespace {

TEST(Adc, ResamplesToAdcRate) {
  AdcConfig cfg;
  cfg.sample_rate_hz = 2.5e6;
  const Adc adc(cfg);
  const Samples in(2000, 0.5f);  // 100 µs at 20 Msps
  const Samples out = adc.capture(in, 20e6);
  EXPECT_NEAR(static_cast<double>(out.size()), 250.0, 2.0);
}

TEST(Adc, QuantizesToCodes) {
  AdcConfig cfg;
  cfg.bits = 9;
  cfg.vref = 1.0;
  cfg.sample_rate_hz = 20e6;
  const Adc adc(cfg);
  const Samples in = {0.0f, 0.5f, 1.0f};
  const auto codes = adc.capture_codes(in, 20e6);
  ASSERT_EQ(codes.size(), 3u);
  EXPECT_EQ(codes[0], 0u);
  EXPECT_EQ(codes[1], 256u);  // mid-scale of 511
  EXPECT_EQ(codes[2], 511u);
}

TEST(Adc, ClampsAboveVref) {
  AdcConfig cfg;
  cfg.vref = 0.5;
  const Adc adc(cfg);
  const Samples in = {2.0f};
  EXPECT_EQ(adc.capture_codes(in, cfg.sample_rate_hz)[0], 511u);
}

TEST(Adc, SmallerVrefUsesMoreCodes) {
  // §2.3.2 note 3: matching vref to the input range uses more codes.
  AdcConfig wide, tight;
  wide.vref = 1.0;
  tight.vref = 0.25;
  const Samples in = {0.2f};
  EXPECT_GT(Adc(tight).capture_codes(in, 20e6)[0],
            Adc(wide).capture_codes(in, 20e6)[0]);
}

TEST(Adc, DisabledReturnsNothingAndDrawsNothing) {
  AdcConfig cfg;
  cfg.enabled = false;
  const Adc adc(cfg);
  EXPECT_TRUE(adc.capture(Samples(100, 0.3f), 20e6).empty());
}

TEST(Adc, PowerScalesLinearlyWithRate) {
  // The power model's ADC term (Table 3): 260 mW at 20 Msps.
  const TagPowerModel power;
  EXPECT_NEAR(power.adc_mw(20e6), 260.0, 1e-9);
  EXPECT_NEAR(power.adc_mw(2.5e6), 32.5, 1e-9);
}

TEST(Adc, QuantizationErrorWithinHalfLsb) {
  AdcConfig cfg;
  cfg.bits = 9;
  cfg.vref = 1.0;
  const Adc adc(cfg);
  Samples in(100);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(i) / 100.0f;
  const Samples out = adc.capture(in, cfg.sample_rate_hz);
  const float lsb = 1.0f / 511.0f;
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_LE(std::abs(out[i] - in[i]), lsb / 2 + 1e-6);
}

}  // namespace
}  // namespace ms
