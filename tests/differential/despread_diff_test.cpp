// Differential suite for the ZigBee OQPSK kernels: synthesis
// (oqpsk_synthesize vs the scalar modulator) and despreading
// (CmacBank::best_match vs the scalar 16-candidate correlator), both
// oracles in oracles.h.
#include "diff_harness.h"

#include <vector>

#include "oracles.h"
#include "phy/zigbee/zigbee.h"

namespace ms {
namespace {

ZigbeeConfig config(unsigned spc) {
  ZigbeeConfig cfg;
  cfg.samples_per_chip = spc;
  return cfg;
}

std::vector<uint8_t> random_symbols(Rng& rng, std::size_t n) {
  std::vector<uint8_t> syms(n);
  for (auto& s : syms) s = static_cast<uint8_t>(rng.uniform_int(16));
  return syms;
}

TEST(DespreadDiff, SynthesisMatchesOracleAcrossConfigs) {
  Rng rng(difftest::kSeed);
  for (unsigned spc : {2u, 4u, 8u}) {
    const ZigbeePhy fast(config(spc));
    const oracle::Zigbee ref(config(spc));
    for (int iter = 0; iter < 6; ++iter) {
      const auto syms = random_symbols(rng, 1 + rng.uniform_int(24));
      difftest::expect_same_samples(
          fast.modulate_symbols(syms), ref.modulate_symbols(syms),
          "oqpsk_synthesize",
          difftest::ctx("spc=%u iter=%d n=%zu", spc, iter, syms.size()));
    }
  }
}

TEST(DespreadDiff, SynthesisCoversNegativeZeroChips) {
  // Symbol 8 starts with chip value −1 (PN LSB = 1 xor 0xaa...), so the
  // first pulse sample is −1 × sin(0) = −0.0f: exactly the case where a
  // raw store would differ from the oracle's add-onto-zero.
  const ZigbeePhy fast(config(4));
  const oracle::Zigbee ref(config(4));
  for (uint8_t sym = 0; sym < 16; ++sym) {
    const uint8_t s[1] = {sym};
    difftest::expect_same_samples(fast.modulate_symbols(s),
                                  ref.modulate_symbols(s), "oqpsk_synthesize",
                                  difftest::ctx("isolated symbol=%u", sym));
  }
}

TEST(DespreadDiff, DetectionMatchesOracleOnNoisyWaveforms) {
  Rng rng(difftest::kSeed ^ 1);
  for (unsigned spc : {2u, 4u}) {
    const ZigbeePhy fast(config(spc));
    const oracle::Zigbee ref(config(spc));
    for (int iter = 0; iter < 8; ++iter) {
      const auto syms = random_symbols(rng, 1 + rng.uniform_int(16));
      const Iq iq = difftest::noisy(ref.modulate_symbols(syms), rng);
      const auto df = fast.detect_symbols(iq, syms.size());
      const auto dr = ref.detect_symbols(iq, syms.size());
      ASSERT_EQ(df.size(), dr.size());
      for (std::size_t i = 0; i < df.size(); ++i) {
        const auto c = difftest::ctx("spc=%u iter=%d symbol=%zu", spc, iter, i);
        EXPECT_EQ(df[i].symbol, dr[i].symbol) << "argmax diverges (" << c
                                              << ")";
        difftest::expect_same_samples({&df[i].corr, 1}, {&dr[i].corr, 1},
                                      "despread corr", c);
      }
    }
  }
}

TEST(DespreadDiff, DetectionMatchesOnTruncatedTail) {
  // A trace cut exactly at n_symbols × sps lacks the half-chip tail, so
  // the last symbol correlates over a shorter window than the bank
  // length — the min(seg, length) edge.
  Rng rng(difftest::kSeed ^ 2);
  const ZigbeePhy fast(config(4));
  const oracle::Zigbee ref(config(4));
  const auto syms = random_symbols(rng, 6);
  const Iq full = difftest::noisy(ref.modulate_symbols(syms), rng);
  const std::span<const Cf> cut(full.data(),
                                syms.size() * fast.samples_per_symbol());
  const auto df = fast.detect_symbols(cut, syms.size());
  const auto dr = ref.detect_symbols(cut, syms.size());
  for (std::size_t i = 0; i < df.size(); ++i) {
    EXPECT_EQ(df[i].symbol, dr[i].symbol) << "symbol " << i;
    difftest::expect_same_samples({&df[i].corr, 1}, {&dr[i].corr, 1},
                                  "despread corr (truncated)",
                                  difftest::ctx("symbol=%zu", i));
  }
}

}  // namespace
}  // namespace ms
