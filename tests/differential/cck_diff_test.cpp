// Differential suite for the 802.11b kernels: cck_demap's planar
// codeword bank vs the per-symbol codeword rebuild, and the full air-bit
// chain (production collapse_chips + cck_demap, driven by the
// test-support demodulate_air_bits) across every rate, its collapsed
// chips included, against the oracles in oracles.h.
#include "diff_harness.h"

#include "oracles.h"
#include "phy/dsss/cck.h"
#include "phy/dsss/wifi_b.h"
#include "raw_receivers.h"

namespace ms {
namespace {

TEST(CckDiff, DemapMatchesOracleOnNoisyCodewords) {
  Rng rng(difftest::kSeed);
  for (bool rate11 : {false, true}) {
    for (int iter = 0; iter < 24; ++iter) {
      // A real codeword behind a random rotation and noise — the
      // regime where |corr| near-ties between candidates happen.
      Bits bits(rate11 ? 6 : 2);
      for (auto& b : bits) b = static_cast<uint8_t>(rng.uniform_int(2));
      double phi2, phi3, phi4;
      cck_data_phases(bits, rate11, phi2, phi3, phi4);
      const Iq clean =
          cck_codeword(rng.uniform(0.0, 2.0 * M_PI), phi2, phi3, phi4);
      const Iq chips = difftest::noisy(clean, rng, -5.0, 25.0);

      Cf rot_fast, rot_ref;
      const Bits fast = cck_demap(chips, rate11, rot_fast);
      const Bits ref = oracle::cck_demap(chips, rate11, rot_ref);
      const auto c = difftest::ctx("rate11=%d iter=%d", rate11 ? 1 : 0, iter);
      difftest::expect_same_bits(fast, ref, "cck_demap bits", c);
      difftest::expect_same_samples({&rot_fast, 1}, {&rot_ref, 1},
                                    "cck_demap rot", c);
    }
  }
}

TEST(CckDiff, DemapMatchesOracleOnPureNoise) {
  // No codeword at all: every candidate's |corr| is noise-driven, so
  // the argmax is maximally tie-prone.
  Rng rng(difftest::kSeed ^ 1);
  for (bool rate11 : {false, true}) {
    for (int iter = 0; iter < 24; ++iter) {
      Iq chips(kCckChips);
      for (auto& c : chips)
        c = Cf(static_cast<float>(rng.normal()),
               static_cast<float>(rng.normal()));
      Cf rot_fast, rot_ref;
      const Bits fast = cck_demap(chips, rate11, rot_fast);
      const Bits ref = oracle::cck_demap(chips, rate11, rot_ref);
      const auto c = difftest::ctx("rate11=%d iter=%d", rate11 ? 1 : 0, iter);
      difftest::expect_same_bits(fast, ref, "cck_demap bits (noise)", c);
      difftest::expect_same_samples({&rot_fast, 1}, {&rot_ref, 1},
                                    "cck_demap rot (noise)", c);
    }
  }
}

TEST(CckDiff, DemapZeroChipsHitsZeroMagnitudeGuard) {
  // All-zero chips make every correlation 0, exercising the
  // mag == 0 normalization guard on both sides of the pair.
  const Iq chips(kCckChips, Cf(0.0f, 0.0f));
  for (bool rate11 : {false, true}) {
    Cf rot_fast, rot_ref;
    const Bits fast = cck_demap(chips, rate11, rot_fast);
    const Bits ref = oracle::cck_demap(chips, rate11, rot_ref);
    const auto c = difftest::ctx("rate11=%d zero-chips", rate11 ? 1 : 0);
    difftest::expect_same_bits(fast, ref, "cck_demap bits (zero)", c);
    difftest::expect_same_samples({&rot_fast, 1}, {&rot_ref, 1},
                                  "cck_demap rot (zero)", c);
  }
}

TEST(CckDiff, AirBitChainMatchesOracleAcrossRates) {
  Rng rng(difftest::kSeed ^ 2);
  for (WifiBRate rate : {WifiBRate::Dbpsk1M, WifiBRate::Dqpsk2M,
                         WifiBRate::Cck5_5M, WifiBRate::Cck11M}) {
    WifiBConfig cfg;
    cfg.rate = rate;
    const WifiBPhy fast(cfg);
    const oracle::WifiB ref(cfg);

    const unsigned bps = wifi_b_bits_per_symbol(rate);
    for (int iter = 0; iter < 4; ++iter) {
      const std::size_t n_sym = 4 + rng.uniform_int(12);
      Bits payload = rng.bits(n_sym * bps);
      const Iq clean = fast.modulate_payload(payload);
      const Iq iq = difftest::noisy(clean, rng, 2.0, 25.0);
      const auto c =
          difftest::ctx("rate=%u iter=%d", static_cast<unsigned>(rate), iter);
      difftest::expect_same_bits(
          demodulate_air_bits(fast, iq, payload.size()),
          ref.demodulate_air_bits(iq, payload.size()), "wifi_b air bits", c);
      // The chips themselves: a collapse that drops one sample per chip
      // still decides every hard bit right at these SNRs.
      const std::size_t sps = fast.samples_per_symbol();
      Iq chips(wifi_b_chips_per_symbol(rate));
      for (std::size_t s = 0; s < n_sym; ++s) {
        const auto sym = std::span<const Cf>(iq).subspan(s * sps, sps);
        collapse_chips(sym, cfg.samples_per_chip, chips);
        difftest::expect_same_samples(
            chips,
            oracle::collapse_chips(sym, cfg.samples_per_chip, chips.size()),
            "wifi_b chips", c + difftest::ctx(" symbol=%zu", s));
      }
    }
  }
}

}  // namespace
}  // namespace ms
