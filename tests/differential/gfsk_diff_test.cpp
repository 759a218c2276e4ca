// Differential suite for the GFSK discriminator: the fused
// middle-half-only kernel vs the full-trace discriminate() + average
// oracle in oracles.h.
#include "diff_harness.h"

#include "oracles.h"
#include "phy/ble/ble.h"

namespace ms {
namespace {

BleConfig config(unsigned sps) {
  BleConfig cfg;
  cfg.samples_per_symbol = sps;
  return cfg;
}

TEST(GfskDiff, SoftBitsMatchOracleAcrossConfigs) {
  Rng rng(difftest::kSeed);
  for (unsigned sps : {2u, 4u, 8u, 10u}) {
    const BlePhy fast(config(sps));
    const oracle::Ble ref(config(sps));
    for (int iter = 0; iter < 6; ++iter) {
      const Bits air = rng.bits(8 + rng.uniform_int(120));
      const Iq iq = difftest::noisy(fast.modulate_bits(air), rng, 0.0, 30.0);
      difftest::expect_same_floats(
          fast.symbol_frequencies(iq, air.size()),
          ref.symbol_frequencies(iq, air.size()), "gfsk soft bits",
          difftest::ctx("sps=%u iter=%d n=%zu", sps, iter, air.size()));
    }
  }
}

TEST(GfskDiff, HardBitsMatchOracle) {
  Rng rng(difftest::kSeed ^ 1);
  const BlePhy fast(config(8));
  const oracle::Ble ref(config(8));
  for (int iter = 0; iter < 6; ++iter) {
    const Bits air = rng.bits(40 + rng.uniform_int(160));
    const Iq iq = difftest::noisy(fast.modulate_bits(air), rng, -2.0, 20.0);
    difftest::expect_same_bits(fast.demodulate_bits(iq, air.size()),
                               ref.demodulate_bits(iq, air.size()),
                               "gfsk hard bits",
                               difftest::ctx("iter=%d", iter));
  }
}

TEST(GfskDiff, ExactLengthTraceMatchesOracle) {
  // Trace cut to exactly n_bits × sps samples: the discriminator's
  // (size − 1)-sample output ends inside the final symbol's window on
  // some configs — the clamping edge both sides must agree on.
  Rng rng(difftest::kSeed ^ 2);
  for (unsigned sps : {2u, 4u, 8u}) {
    const BlePhy fast(config(sps));
    const oracle::Ble ref(config(sps));
    const Bits air = rng.bits(32);
    const Iq full = difftest::noisy(fast.modulate_bits(air), rng);
    const std::span<const Cf> cut(full.data(), air.size() * sps);
    difftest::expect_same_floats(fast.symbol_frequencies(cut, air.size()),
                                 ref.symbol_frequencies(cut, air.size()),
                                 "gfsk soft bits (exact-length)",
                                 difftest::ctx("sps=%u", sps));
  }
}

}  // namespace
}  // namespace ms
