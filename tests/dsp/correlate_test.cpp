#include "dsp/correlate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace ms {
namespace {

/// Index of the first maximum of `c`.
std::size_t argmax_of(const Samples& c) {
  return static_cast<std::size_t>(std::max_element(c.begin(), c.end()) -
                                  c.begin());
}

TEST(Correlate, PerfectCorrelationIsOne) {
  const Samples x = {1, 2, 3, 4, 5};
  EXPECT_NEAR(pearson(x, x), 1.0, 1e-9);
}

TEST(Correlate, AntiCorrelationIsMinusOne) {
  const Samples x = {1, 2, 3, 4, 5};
  const Samples y = {5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-9);
}

TEST(Correlate, ScaleAndOffsetInvariant) {
  const Samples x = {1, -2, 3, 0, 2};
  Samples y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 3.0f * x[i] + 7.0f;
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-6);
}

TEST(Correlate, ZeroVarianceGivesZero) {
  EXPECT_DOUBLE_EQ(pearson(Samples{1, 1, 1}, Samples{1, 2, 3}), 0.0);
}

TEST(Correlate, UncorrelatedNoiseNearZero) {
  Rng rng(1);
  Samples a(5000), b(5000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.normal());
    b[i] = static_cast<float>(rng.normal());
  }
  EXPECT_LT(std::abs(pearson(a, b)), 0.05);
}

TEST(Correlate, SlidingFindsEmbeddedTemplate) {
  Rng rng(2);
  Samples tmpl(32);
  for (float& v : tmpl) v = static_cast<float>(rng.normal());
  Samples x(200);
  for (float& v : x) v = static_cast<float>(rng.normal() * 0.1);
  const std::size_t pos = 77;
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[pos + i] += tmpl[i];
  const Samples c = sliding_correlation(x, tmpl);
  EXPECT_EQ(argmax_of(c), pos);
  EXPECT_GT(c[pos], 0.9f);
}

TEST(Correlate, SlidingShorterThanTemplateIsEmpty) {
  EXPECT_TRUE(sliding_correlation(Samples{1, 2}, Samples{1, 2, 3}).empty());
}

TEST(Correlate, SignCorrelationIdentical) {
  const std::vector<int8_t> a = {1, -1, 1, 1, -1};
  EXPECT_DOUBLE_EQ(sign_correlation(a, a), 1.0);
}

TEST(Correlate, SignCorrelationOpposite) {
  const std::vector<int8_t> a = {1, -1, 1, -1};
  const std::vector<int8_t> b = {-1, 1, -1, 1};
  EXPECT_DOUBLE_EQ(sign_correlation(a, b), -1.0);
}

TEST(Correlate, SignCorrelationHalfAgreement) {
  const std::vector<int8_t> a = {1, 1, 1, 1};
  const std::vector<int8_t> b = {1, 1, -1, -1};
  EXPECT_DOUBLE_EQ(sign_correlation(a, b), 0.0);
}

// Tail-boundary coverage (mirrors the bitpack tail-word masking suite):
// input lengths straddling multiples of the template window, where the
// final window must consume exactly the trailing samples.
TEST(Correlate, SlidingOutputSizeAtWindowBoundaries) {
  Rng rng(4);
  Samples tmpl(8);
  for (float& v : tmpl) v = static_cast<float>(rng.normal());
  for (std::size_t len : {7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u}) {
    Samples x(len);
    for (float& v : x) v = static_cast<float>(rng.normal());
    const Samples c = sliding_correlation(x, tmpl);
    if (len < tmpl.size()) {
      EXPECT_TRUE(c.empty()) << "len=" << len;
    } else {
      EXPECT_EQ(c.size(), len - tmpl.size() + 1) << "len=" << len;
    }
  }
}

TEST(Correlate, ExactLengthInputYieldsSingleWindow) {
  Rng rng(5);
  Samples tmpl(16), x(16);
  for (float& v : tmpl) v = static_cast<float>(rng.normal());
  for (float& v : x) v = static_cast<float>(rng.normal());
  const Samples c = sliding_correlation(x, tmpl);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_FLOAT_EQ(c[0], static_cast<float>(pearson(x, tmpl)));
}

TEST(Correlate, FinalWindowConsumesExactTail) {
  // Perturbing the last input sample may change only the final window;
  // perturbing the sample before the first window's end changes out[0].
  Rng rng(6);
  Samples tmpl(8);
  for (float& v : tmpl) v = static_cast<float>(rng.normal());
  Samples x(21);
  for (float& v : x) v = static_cast<float>(rng.normal());
  const Samples base = sliding_correlation(x, tmpl);
  Samples bumped = x;
  bumped.back() += 3.0f;
  const Samples c = sliding_correlation(bumped, tmpl);
  ASSERT_EQ(c.size(), base.size());
  for (std::size_t i = 0; i + 1 < c.size(); ++i)
    EXPECT_EQ(c[i], base[i]) << "window " << i << " saw the tail sample";
  EXPECT_NE(c.back(), base.back());
}

TEST(Correlate, TemplateEmbeddedAtTailIsFound) {
  Rng rng(7);
  Samples tmpl(8);
  for (float& v : tmpl) v = static_cast<float>(rng.normal());
  for (std::size_t len : {8u, 9u, 17u, 33u}) {
    Samples x(len);
    for (float& v : x) v = static_cast<float>(rng.normal() * 0.05);
    const std::size_t pos = len - tmpl.size();
    for (std::size_t i = 0; i < tmpl.size(); ++i) x[pos + i] += tmpl[i];
    const Samples c = sliding_correlation(x, tmpl);
    EXPECT_EQ(argmax_of(c), pos) << "len=" << len;
    EXPECT_GT(c[pos], 0.9f) << "len=" << len;
  }
}

}  // namespace
}  // namespace ms
