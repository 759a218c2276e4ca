#include "core/ident/templates.h"

#include <gtest/gtest.h>

#include "dsp/correlate.h"
#include "dsp/ops.h"

namespace ms {
namespace {

TEST(Templates, NativeRates) {
  EXPECT_DOUBLE_EQ(native_sample_rate(Protocol::WifiB), 22e6);
  EXPECT_DOUBLE_EQ(native_sample_rate(Protocol::WifiN), 20e6);
  EXPECT_DOUBLE_EQ(native_sample_rate(Protocol::Ble), 8e6);
  EXPECT_DOUBLE_EQ(native_sample_rate(Protocol::Zigbee), 8e6);
}

TEST(Templates, ShortPreamblesAre8us) {
  for (Protocol p : kAllProtocols) {
    const Iq w = clean_preamble(p, false);
    const double dur = static_cast<double>(w.size()) / native_sample_rate(p);
    EXPECT_NEAR(dur, 8e-6, 1e-6) << protocol_name(p);
  }
}

TEST(Templates, ExtendedPreamblesAre40us) {
  for (Protocol p : kAllProtocols) {
    const Iq w = clean_preamble(p, true);
    const double dur = static_cast<double>(w.size()) / native_sample_rate(p);
    EXPECT_NEAR(dur, 40e-6, 2e-6) << protocol_name(p);
  }
}

TEST(Templates, BuildProducesAllFour) {
  TemplateParams params;
  const TemplateSet set = build_templates(params);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(set.matched[i].size(), params.match_len);
    EXPECT_EQ(set.one_bit[i].size(), params.match_len);
  }
}

TEST(Templates, MatchedTemplatesAreNormalized) {
  const TemplateSet set = build_templates(TemplateParams{});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(mean(set.matched[i]), 0.0, 1e-4) << i;
    EXPECT_NEAR(stddev(set.matched[i]), 1.0, 1e-3) << i;
  }
}

TEST(Templates, OneBitTemplatesAreSigns) {
  const TemplateSet set = build_templates(TemplateParams{});
  for (const auto& t : set.one_bit)
    for (int8_t v : t) EXPECT_TRUE(v == 1 || v == -1);
}

TEST(Templates, TemplatesAreDistinct) {
  const TemplateSet set = build_templates(TemplateParams{});
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = a + 1; b < 4; ++b)
      EXPECT_LT(std::abs(pearson(set.matched[a], set.matched[b])), 0.75)
          << a << " vs " << b;
}

TEST(Templates, StorageFitsFpga) {
  // §2.3.2 note 2: extended templates cost ~400 bits, ~1.1% of the
  // AGLN250's 36 kb.  Our extended 2.5 Msps templates must be in that
  // ballpark and far under the budget.
  TemplateParams params;
  params.adc_rate_hz = 2.5e6;
  params.preprocess_len = 20;
  params.match_len = 80;
  params.extended = true;
  const TemplateSet set = build_templates(params);
  std::size_t storage_bits = 0;  // one bit per 1-bit template sample
  for (const auto& t : set.one_bit) storage_bits += t.size();
  EXPECT_LE(storage_bits, 400u);
  EXPECT_LT(static_cast<double>(storage_bits) / (36 * 1024), 0.02);
}

TEST(Templates, WindowClippedWhenTraceShort) {
  TemplateParams params;
  params.adc_rate_hz = 1e6;  // 40 µs → 40 samples
  params.preprocess_len = 8;
  params.match_len = 100;  // impossible; must clip
  const TemplateSet set = build_templates(params);
  for (const auto& t : set.matched) {
    EXPECT_GT(t.size(), 8u);
    EXPECT_LT(t.size(), 45u);
  }
}

TEST(Templates, OneBitWindowThresholdsAgainstPrefixMean) {
  const Samples trace = {1, 1, 1, 1, 0, 2, 0, 2};
  const auto bits = one_bit_window(trace, 0, 4, 4);  // threshold = 1
  EXPECT_EQ(bits, (std::vector<int8_t>{-1, 1, -1, 1}));
}

TEST(Templates, OneBitWindowZeroLpUsesWindowMean) {
  const Samples trace = {0, 2, 0, 2};
  const auto bits = one_bit_window(trace, 0, 0, 4);  // mean = 1
  EXPECT_EQ(bits, (std::vector<int8_t>{-1, 1, -1, 1}));
}

}  // namespace
}  // namespace ms
