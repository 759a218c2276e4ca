// Equivalence properties of the bit-packed 1-bit kernels (ISSUE 5).
//
// The packed XOR+popcount path must be *bit-identical* to the reference
// byte-per-position kernels — not close, identical: both compute the
// same integer sum of products and divide by the same length, so every
// EXPECT below compares doubles with ==.  Lengths deliberately straddle
// word boundaries (63/64/65, 127/128/129, 191/192/193) to pin the
// tail-word masking, and the identifier-level sweep covers all four
// protocols over the Fig 5b (L_p, L_t) splits plus the Fig 7 operating
// point.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/ident/identifier.h"
#include "core/ident/templates.h"
#include "dsp/bitpack.h"
#include "dsp/correlate.h"
#include "oracles.h"
#include "sim/ident_experiment.h"

namespace ms {
namespace {

std::vector<int8_t> random_signs(Rng& rng, std::size_t n) {
  std::vector<int8_t> v(n);
  for (auto& s : v) s = rng.chance(0.5) ? int8_t{1} : int8_t{-1};
  return v;
}

constexpr std::size_t kBoundaryLengths[] = {1,   7,   63,  64,  65,  127,
                                            128, 129, 191, 192, 193, 1000};

TEST(BitpackProperty, PackedDotMatchesScalarAcrossWordBoundaries) {
  Rng rng(0x5eed);
  for (std::size_t n : kBoundaryLengths) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto a = random_signs(rng, n);
      const auto b = random_signs(rng, n);
      long scalar = 0;
      for (std::size_t i = 0; i < n; ++i)
        scalar += static_cast<long>(a[i]) * static_cast<long>(b[i]);
      const auto pa = bitpack::pack_signs(a);
      const auto pb = bitpack::pack_signs(b);
      EXPECT_EQ(bitpack::packed_dot(pa.words, pb.words, n), scalar)
          << "n=" << n;
      EXPECT_EQ(bitpack::packed_sign_correlation(pa.words, pb.words, n),
                sign_correlation(a, b))
          << "n=" << n;
    }
  }
}

TEST(BitpackProperty, PackThresholdClearsPadding) {
  Rng rng(0xbeef);
  for (std::size_t n : kBoundaryLengths) {
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<std::uint64_t> out(bitpack::words_for(n), ~std::uint64_t{0});
    bitpack::pack_threshold(x, 0.0, out);
    // Every bit beyond position n must be zero, so a packed_dot against
    // a template whose tail garbage differs cannot change the result.
    EXPECT_EQ(out.back() & ~bitpack::tail_mask(n), 0u) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      const bool bit = (out[i / 64] >> (i % 64)) & 1;
      EXPECT_EQ(bit, x[i] >= 0.0) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BitpackProperty, SlidingMatchesPerOffsetReference) {
  Rng rng(0xab5);
  const std::size_t stream_len = 300;
  for (std::size_t lt : {1ul, 60ul, 63ul, 64ul, 65ul, 120ul, 129ul}) {
    const auto stream = random_signs(rng, stream_len);
    const auto tmpl = random_signs(rng, lt);
    const auto packed_stream = bitpack::pack_signs(stream);
    const auto packed_tmpl = bitpack::pack_signs(tmpl);
    const auto scores =
        bitpack::sliding_sign_correlation(packed_stream, packed_tmpl);
    ASSERT_EQ(scores.size(), stream_len - lt + 1);
    for (std::size_t off = 0; off + lt <= stream_len; ++off) {
      const double ref = sign_correlation(
          std::span<const int8_t>(stream).subspan(off, lt), tmpl);
      EXPECT_EQ(scores[off], ref) << "lt=" << lt << " off=" << off;
    }
  }
}

TEST(BitpackProperty, PackedOneBitPeakMatchesReferenceScan) {
  Rng rng(0xfade);
  const std::size_t trace_len = 400;
  for (std::size_t lp : {0ul, 5ul, 20ul, 40ul}) {
    for (std::size_t lt : {60ul, 63ul, 65ul, 120ul}) {
      std::vector<float> trace(trace_len);
      for (auto& v : trace) v = static_cast<float>(rng.uniform(0.0, 1.0));
      const auto tmpl_signs = random_signs(rng, lt);
      const auto tmpl = bitpack::pack_signs(tmpl_signs);
      const std::size_t lo = 3, hi = 80;

      double best = -1.0;
      std::size_t best_off = 0;
      for (std::size_t off = lo;
           off <= hi && off + lp + lt <= trace.size(); ++off) {
        const auto bits = one_bit_window(trace, off, lp, lt);
        const double s = sign_correlation(bits, tmpl_signs);
        if (s > best) {
          best = s;
          best_off = off;
        }
      }
      const OneBitPeak peak = packed_one_bit_peak(trace, lo, hi, lp, tmpl);
      EXPECT_EQ(peak.score, best) << "lp=" << lp << " lt=" << lt;
      EXPECT_EQ(peak.offset, best_off) << "lp=" << lp << " lt=" << lt;
    }
  }
}

// Identifier-level equivalence: at every Fig 5b (L_p, L_t) split and the
// Fig 7 operating point, the packed scorer must return the byte-per-
// position oracle's score vector bitwise, and classify() must decide on
// those same scores, for all four protocols on realistic noisy traces.
struct IdentPoint {
  double adc_rate_hz;
  std::size_t lp;
  std::size_t lt;
};

std::vector<IdentPoint> ident_points() {
  std::vector<IdentPoint> pts;
  for (std::size_t lp : {20ul, 40ul, 60ul})
    for (std::size_t lt : {60ul, 100ul, 120ul})
      if (lp + lt <= 160) pts.push_back({20e6, lp, lt});
  pts.push_back({10e6, 20, 60});  // Fig 7 operating point
  return pts;
}

TEST(BitpackProperty, IdentifierPackedEqualsReferenceEverywhere) {
  for (const IdentPoint& pt : ident_points()) {
    IdentTrialConfig cfg;
    cfg.ident.templates.adc_rate_hz = pt.adc_rate_hz;
    cfg.ident.templates.preprocess_len = pt.lp;
    cfg.ident.templates.match_len = pt.lt;
    cfg.ident.compute = ComputeMode::OneBit;

    const ProtocolIdentifier packed(cfg.ident);

    Rng rng(0x715 + pt.lp * 1000 + pt.lt);
    for (Protocol p : kAllProtocols) {
      for (int trial = 0; trial < 3; ++trial) {
        Rng trial_rng(rng());
        const Samples trace = make_ident_trace(p, cfg, trial_rng);
        const auto sp = packed.scores(trace);
        const auto sr = oracle::one_bit_scores(packed, trace);
        const auto sc = packed.classify(trace).scores;
        for (std::size_t i = 0; i < 4; ++i) {
          EXPECT_EQ(sp[i], sr[i])
              << "rate=" << pt.adc_rate_hz << " lp=" << pt.lp
              << " lt=" << pt.lt << " proto=" << protocol_name(p)
              << " score " << i;
          EXPECT_EQ(sc[i], sr[i])
              << "classify: rate=" << pt.adc_rate_hz << " lp=" << pt.lp
              << " lt=" << pt.lt << " proto=" << protocol_name(p)
              << " score " << i;
        }
      }
    }
  }
}

// Cases of the retired PackedBits wrapper, run against the bitpack calls
// it wrapped.

TEST(PackedBits, DotMatchesReference) {
  Rng rng(1);
  for (std::size_t n : {1u, 7u, 64u, 65u, 120u, 300u}) {
    const auto a = random_signs(rng, n);
    const auto b = random_signs(rng, n);
    long ref = 0;
    for (std::size_t i = 0; i < n; ++i)
      ref += static_cast<int>(a[i]) * static_cast<int>(b[i]);
    EXPECT_EQ(bitpack::packed_dot(bitpack::pack_signs(a).words,
                                  bitpack::pack_signs(b).words, n),
              ref)
        << n;
  }
}

TEST(PackedBits, CorrelationMatchesSignCorrelation) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(200);
    const auto a = random_signs(rng, n);
    const auto b = random_signs(rng, n);
    EXPECT_DOUBLE_EQ(
        bitpack::packed_sign_correlation(bitpack::pack_signs(a).words,
                                         bitpack::pack_signs(b).words, n),
        sign_correlation(a, b));
  }
}

TEST(PackedBits, SelfCorrelationIsOne) {
  Rng rng(3);
  const auto a = bitpack::pack_signs(random_signs(rng, 120));
  EXPECT_DOUBLE_EQ(bitpack::packed_sign_correlation(a.words, a.words, 120),
                   1.0);
}

TEST(PackedBits, SizeMismatchThrows) {
  Rng rng(4);
  const auto a = bitpack::pack_signs(random_signs(rng, 64));
  const auto b = bitpack::pack_signs(random_signs(rng, 65));
  EXPECT_THROW(bitpack::packed_dot(a.words, b.words, 65), Error);
}

TEST(PackedBits, EmptyIsZero) {
  const auto a = bitpack::pack_signs(std::span<const int8_t>{});
  EXPECT_EQ(bitpack::packed_dot(a.words, a.words, 0), 0);
  EXPECT_DOUBLE_EQ(bitpack::packed_sign_correlation(a.words, a.words, 0), 0.0);
}

std::vector<double> sliding(std::span<const int8_t> stream,
                            std::span<const int8_t> tmpl) {
  return bitpack::sliding_sign_correlation(bitpack::pack_signs(stream),
                                           bitpack::pack_signs(tmpl));
}

TEST(PackedSliding, MatchesNaiveSliding) {
  Rng rng(5);
  const auto stream = random_signs(rng, 500);
  const auto tmpl = random_signs(rng, 120);
  const auto fast = sliding(stream, tmpl);
  ASSERT_EQ(fast.size(), 381u);
  for (std::size_t off = 0; off < fast.size(); ++off) {
    const double ref = sign_correlation(
        std::span<const int8_t>(stream).subspan(off, 120), tmpl);
    EXPECT_DOUBLE_EQ(fast[off], ref) << off;
  }
}

TEST(PackedSliding, FindsEmbeddedTemplate) {
  Rng rng(6);
  auto stream = random_signs(rng, 400);
  const auto tmpl = random_signs(rng, 100);
  const std::size_t pos = 137;
  std::copy(tmpl.begin(), tmpl.end(), stream.begin() + pos);
  const auto c = sliding(stream, tmpl);
  EXPECT_EQ(std::max_element(c.begin(), c.end()) - c.begin(),
            static_cast<std::ptrdiff_t>(pos));
  EXPECT_DOUBLE_EQ(c[pos], 1.0);
}

TEST(PackedSliding, StreamShorterThanTemplateIsEmpty) {
  Rng rng(7);
  const auto stream = random_signs(rng, 50);
  EXPECT_TRUE(sliding(stream, random_signs(rng, 100)).empty());
}

}  // namespace
}  // namespace ms
