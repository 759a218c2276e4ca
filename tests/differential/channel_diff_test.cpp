// Differential gate for the channel kernels behind every identification
// trace.  Rng::normals batches the polar method's Gaussian draws, the
// noise functions draw through it in stack blocks,
// MultipathChannel::apply sums four outputs at a time in planar lanes,
// and envelope() takes |x| two samples at a time in double lanes.  Each
// must return exactly what the per-sample code returned, bit for bit,
// and leave the generator exactly where it left it: at every length
// around the blocks, with a spare draw pending or not, at extreme noise
// powers, and on signed zeros, subnormals, infinities and NaNs.  That
// per-sample code lives on here, verbatim, as the oracle.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "channel/multipath.h"
#include "common/error.h"
#include "diff_harness.h"
#include "dsp/ops.h"

namespace ms {
namespace {

namespace oracle {

Iq complex_noise(std::size_t n, double noise_power, Rng& rng) {
  Iq out(n);
  const double sigma = std::sqrt(noise_power / 2.0);
  for (Cf& v : out) {
    // Imaginary part first: the order every recorded stream was drawn in.
    const float im = static_cast<float>(rng.normal(0.0, sigma));
    const float re = static_cast<float>(rng.normal(0.0, sigma));
    v = Cf(re, im);
  }
  return out;
}

Iq add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng) {
  Iq out(x.begin(), x.end());
  const double sigma = std::sqrt(noise_power / 2.0);
  for (Cf& v : out) {
    // Imaginary part first, as in complex_noise.
    const float im = static_cast<float>(rng.normal(0.0, sigma));
    const float re = static_cast<float>(rng.normal(0.0, sigma));
    v += Cf(re, im);
  }
  return out;
}

Iq apply(const MultipathChannel& ch, std::span<const Cf> x) {
  const std::vector<Cf>& taps = ch.taps;
  const std::vector<std::size_t>& delays = ch.delays;
  MS_CHECK(taps.size() == delays.size());
  MS_CHECK(!taps.empty());
  Iq out(x.size(), Cf(0.0f, 0.0f));
  for (std::size_t t = 0; t < taps.size(); ++t) {
    const std::size_t d = delays[t];
    for (std::size_t i = d; i < x.size(); ++i) out[i] += x[i - d] * taps[t];
  }
  return out;
}

Samples envelope(std::span<const Cf> x) {
  Samples out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::abs(x[i]);
  return out;
}

}  // namespace oracle

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// The generators must agree after the call too: the next normal()
/// (which takes a pending spare) and the next raw draw.
void expect_same_generator(Rng& fast, Rng& ref, const std::string& ctx) {
  const double a = fast.normal(), b = ref.normal();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << "next normal() differs (" << ctx << "): " << a << " vs " << b;
  EXPECT_EQ(fast(), ref()) << "next raw draw differs (" << ctx << ")";
}

/// Lengths 0–3, around the 128-complex and 256-real draw blocks, and
/// three 1400–2000-sample traces.
std::vector<std::size_t> noise_lengths(Rng& rng) {
  std::vector<std::size_t> out = {0, 1, 2, 3, 127, 128, 129, 255, 256, 257};
  for (int r = 0; r < 3; ++r) out.push_back(1400 + rng.uniform_int(601));
  return out;
}

/// Random complex samples; with `specials`, about 1 in 20 components is
/// ±0.0, ±inf or NaN.
Iq random_iq(std::size_t n, Rng& rng, bool specials) {
  constexpr float kSpecial[] = {0.0f, -0.0f, kInf, -kInf, kNan};
  Iq x(n);
  for (Cf& v : x) {
    float re = static_cast<float>(rng.normal());
    float im = static_cast<float>(rng.normal());
    if (specials && rng.chance(0.05)) re = kSpecial[rng.uniform_int(5)];
    if (specials && rng.chance(0.05)) im = kSpecial[rng.uniform_int(5)];
    v = Cf(re, im);
  }
  return x;
}

TEST(ChannelDiff, NormalsMatchSuccessiveNormalCalls) {
  // Every size 0–300, each entered with or without a spare pending and
  // followed by single draws, on one pair of generators throughout.
  Rng fast(difftest::kSeed), ref(difftest::kSeed);
  Rng pick(difftest::kSeed ^ 1);
  std::vector<double> got, want;
  for (std::size_t n = 0; n <= 300; ++n) {
    for (std::uint64_t k = pick.uniform_int(3); k > 0; --k) {
      const double a = fast.normal(), b = ref.normal();
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "single draw, n=" << n;
    }
    got.assign(n, 0.0);
    fast.normals(got);
    want.clear();
    for (std::size_t k = 0; k < n; ++k) want.push_back(ref.normal());
    difftest::expect_same_doubles(got, want, "normals",
                                  difftest::ctx("n=%zu", n));
  }
  expect_same_generator(fast, ref, "after sweep");
}

TEST(ChannelDiff, NoiseDrawsMatchOracleAcrossLengthsAndPowers) {
  // complex_noise and add_noise_power at noise powers giving sigma 0,
  // 1e-30, 1 and 1e30, each entered with a spare pending (an odd number
  // of prior normal() calls) or not, on inputs with signed zeros,
  // infinities and NaNs among ordinary samples.
  Rng rng(difftest::kSeed ^ 2);
  for (std::size_t n : noise_lengths(rng))
    for (double power : {0.0, 2e-60, 2.0, 2e60})
      for (bool spare : {false, true}) {
        const std::string ctx = difftest::ctx("n=%zu power=%g spare=%d", n,
                                              power, int{spare});
        const std::uint64_t seed = rng();
        Rng fast(seed), ref(seed);
        if (spare) {
          fast.normal();
          ref.normal();
        }
        difftest::expect_same_samples(complex_noise(n, power, fast),
                                      oracle::complex_noise(n, power, ref),
                                      "complex_noise", ctx);
        expect_same_generator(fast, ref, "complex_noise " + ctx);
        if (spare) {
          fast.normal();
          ref.normal();
        }
        const Iq x = random_iq(n, rng, true);
        difftest::expect_same_samples(add_noise_power(x, power, fast),
                                      oracle::add_noise_power(x, power, ref),
                                      "add_noise_power", ctx);
        expect_same_generator(fast, ref, "add_noise_power " + ctx);
      }
}

/// A channel with the given delays and taps drawn like sample_multipath's
/// echoes, optionally with ±0, ±inf and NaN parts among them.
MultipathChannel channel(std::vector<std::size_t> delays, Rng& rng,
                         bool specials) {
  MultipathChannel ch;
  ch.delays = std::move(delays);
  ch.taps = random_iq(ch.delays.size(), rng, specials);
  return ch;
}

void expect_same_apply(const MultipathChannel& ch, std::span<const Cf> x,
                       const std::string& ctx) {
  difftest::expect_same_samples(ch.apply(x), oracle::apply(ch, x),
                                "multipath apply", ctx);
}

TEST(ChannelDiff, MultipathMatchesOracleAcrossDelaysAndLengths) {
  // The default delays {0, 1, 2}, repeated delays, one echo longer than
  // the input, a lone tap, and sampled channels at every front-end rate;
  // every length 0–40 (n below the largest delay included) and three
  // 1400–2000-sample traces; ordinary samples, and samples and taps with
  // ±0, ±inf and NaN parts (inf·0 products among them).
  Rng rng(difftest::kSeed ^ 4);
  const std::vector<std::vector<std::size_t>> delay_sets = {
      {0, 1, 2}, {0, 0, 1, 1, 2}, {2, 0, 2}, {0, 3, 45}, {0}, {5}, {1, 1}};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (int r = 0; r < 3; ++r) lengths.push_back(1400 + rng.uniform_int(601));
  for (const auto& delays : delay_sets)
    for (std::size_t n : lengths)
      for (bool specials : {false, true}) {
        const MultipathChannel ch = channel(delays, rng, specials);
        expect_same_apply(ch, random_iq(n, rng, specials),
                          difftest::ctx("delays=%zu..%zu taps=%zu n=%zu "
                                        "specials=%d",
                                        delays.front(), delays.back(),
                                        delays.size(), n, int{specials}));
      }
  for (double rate : {8e6, 20e6, 22e6, 2e6})
    for (std::size_t n : {0u, 3u, 37u, 1600u}) {
      const MultipathChannel ch = sample_multipath(MultipathConfig{}, rate, rng);
      expect_same_apply(ch, random_iq(n, rng, false),
                        difftest::ctx("sampled rate=%g n=%zu", rate, n));
    }
}

TEST(ChannelDiff, MultipathRecoversInfinitiesLikeTheLibraryProduct) {
  // (inf, inf)·(1, 0) is (NaN, NaN) in the four-multiply form:
  // inf·1 − inf·0 and inf·0 + inf·1.  The library product calls
  // __mulsc3 there, which recovers (inf, inf).  Such a sample at every
  // position of the head, the blocks and the tail, and an infinite tap
  // times (1, 0) samples.
  const MultipathChannel ch{
      {Cf(1.0f, 0.0f), Cf(0.0f, 1.0f), Cf(-0.5f, 0.5f)}, {0, 1, 2}};
  for (std::size_t at = 0; at < 12; ++at)
    for (const Cf bad : {Cf(kInf, kInf), Cf(-kInf, kInf), Cf(kInf, kNan)}) {
      Iq x(12, Cf(0.5f, -0.25f));
      x[at] = bad;
      expect_same_apply(ch, x,
                        difftest::ctx("(%g,%g) at %zu", bad.real(),
                                      bad.imag(), at));
    }
  for (std::size_t t = 0; t < 3; ++t) {
    MultipathChannel inf_tap = ch;
    inf_tap.taps[t] = Cf(kInf, kInf);
    expect_same_apply(inf_tap, Iq(12, Cf(1.0f, 0.0f)),
                      difftest::ctx("tap %zu = (inf, inf)", t));
  }
}

TEST(ChannelDiff, MultipathKeepsSignedZeroSums) {
  // Products of ±0 only: each output starts at +0.0f, so an all −0
  // product sum still comes out +0, as in the tap-outer loop.
  const Cf zeros[] = {Cf(0.0f, 0.0f), Cf(-0.0f, 0.0f), Cf(0.0f, -0.0f),
                      Cf(-0.0f, -0.0f)};
  for (const Cf z : zeros)
    for (const Cf h : {Cf(1.0f, 0.0f), Cf(-1.0f, -0.0f), Cf(0.0f, 1.0f)}) {
      const MultipathChannel one{{h}, {0}};
      const MultipathChannel three{{h, h, h}, {0, 1, 2}};
      const Iq x(9, z);
      const std::string ctx = difftest::ctx(
          "x=(%g,%g) h=(%g,%g)", z.real(), z.imag(), h.real(), h.imag());
      expect_same_apply(one, x, "one tap " + ctx);
      expect_same_apply(three, x, "three taps " + ctx);
    }
}

TEST(ChannelDiff, EnvelopeMatchesOracle) {
  // Ordinary samples at every length 0–40 and three traces, then the
  // edge values at both lanes of a pair and in the odd last sample:
  // ±0, subnormals, FLT_MAX pairs (|x| overflows float), (±inf, NaN),
  // (NaN, ±inf), NaN, and infinities with finite partners.
  Rng rng(difftest::kSeed ^ 5);
  for (std::size_t n = 0; n <= 40; ++n)
    for (bool specials : {false, true}) {
      const Iq x = random_iq(n, rng, specials);
      difftest::expect_same_floats(
          envelope(x), oracle::envelope(x), "envelope",
          difftest::ctx("n=%zu specials=%d", n, int{specials}));
    }
  for (int r = 0; r < 3; ++r) {
    const Iq x = random_iq(1400 + rng.uniform_int(601), rng, true);
    difftest::expect_same_floats(envelope(x), oracle::envelope(x), "envelope",
                                 difftest::ctx("trace %d", r));
  }
  const float sub = std::numeric_limits<float>::denorm_min();
  const Cf edges[] = {
      Cf(0.0f, 0.0f),          Cf(-0.0f, 0.0f),          Cf(0.0f, -0.0f),
      Cf(-0.0f, -0.0f),        Cf(sub, 0.0f),            Cf(-sub, sub),
      Cf(FLT_MIN / 3, -FLT_MIN), Cf(FLT_MAX, FLT_MAX),   Cf(-FLT_MAX, FLT_MAX),
      Cf(FLT_MAX, 0.0f),       Cf(kInf, kNan),           Cf(-kInf, kNan),
      Cf(kNan, kInf),          Cf(kNan, -kInf),          Cf(kNan, kNan),
      Cf(kNan, 1.0f),          Cf(1.0f, kNan),           Cf(kInf, 1.0f),
      Cf(1.0f, -kInf),         Cf(kInf, kInf),           Cf(3.0f, 4.0f)};
  for (const Cf e : edges)
    for (std::size_t at = 0; at < 5; ++at)
      for (std::size_t n : {at + 1, std::size_t{6}}) {
        Iq x(n, Cf(0.75f, -1.5f));
        x[at] = e;
        difftest::expect_same_floats(
            envelope(x), oracle::envelope(x), "envelope",
            difftest::ctx("edge (%a,%a) at %zu of %zu", e.real(), e.imag(),
                          at, n));
      }
}

}  // namespace
}  // namespace ms
