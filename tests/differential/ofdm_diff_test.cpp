// Differential suite for the OFDM kernels: FftPlan vs the recurrence
// FFT in dsp/fft, the cached interleaver permutation vs the per-bit
// index arithmetic, and the wifi_n modulate/demodulate chains end to
// end against the oracles in oracles.h.
#include "diff_harness.h"

#include "dsp/fft.h"
#include "dsp/kernels/fft_plan.h"
#include "oracles.h"
#include "phy/interleaver.h"
#include "phy/ofdm/subcarriers.h"
#include "phy/ofdm/wifi_n.h"

namespace ms {
namespace {

Iq random_iq(Rng& rng, std::size_t n) {
  Iq x(n);
  for (auto& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  return x;
}

TEST(OfdmDiff, PlannedFftMatchesReferenceAcrossSizes) {
  Rng rng(difftest::kSeed);
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 128u, 256u}) {
    const kernels::FftPlan& plan = kernels::fft_plan(n);
    for (int iter = 0; iter < 4; ++iter) {
      const Iq x = random_iq(rng, n);

      Iq ref = x;
      fft_inplace(ref);
      Iq fast = x;
      plan.forward(fast);
      difftest::expect_same_samples(fast, ref, "fft_plan forward",
                                    difftest::ctx("n=%zu iter=%d", n, iter));

      Iq iref = x;
      ifft_inplace(iref);
      Iq ifast = x;
      plan.inverse(ifast);
      difftest::expect_same_samples(ifast, iref, "fft_plan inverse",
                                    difftest::ctx("n=%zu iter=%d", n, iter));
    }
  }
}

TEST(OfdmDiff, InterleaverMatchesOracleAndRoundTrips) {
  Rng rng(difftest::kSeed ^ 2);
  const std::pair<unsigned, unsigned> shapes[] = {{48, 1}, {96, 2}, {192, 4}};
  for (auto [n_cbps, n_bpsc] : shapes) {
    for (int iter = 0; iter < 4; ++iter) {
      const std::size_t n_sym = 1 + rng.uniform_int(5);
      const Bits bits = rng.bits(n_sym * n_cbps);
      const auto c =
          difftest::ctx("ncbps=%u nbpsc=%u iter=%d", n_cbps, n_bpsc, iter);

      const Bits il_fast = interleave_11n(bits, n_cbps, n_bpsc);
      const Bits il_ref = oracle::interleave_11n(bits, n_cbps, n_bpsc);
      difftest::expect_same_bits(il_fast, il_ref, "interleave_11n", c);

      const Bits de_fast = deinterleave_11n(il_ref, n_cbps, n_bpsc);
      const Bits de_ref = oracle::deinterleave_11n(il_ref, n_cbps, n_bpsc);
      difftest::expect_same_bits(de_fast, de_ref, "deinterleave_11n", c);
      difftest::expect_same_bits(de_fast, bits, "interleaver round trip", c);
    }
  }
}

WifiNConfig config(Modulation m) {
  WifiNConfig cfg;
  cfg.modulation = m;
  return cfg;
}

TEST(OfdmDiff, ModulateCodedSymbolsMatchesOracle) {
  Rng rng(difftest::kSeed ^ 3);
  for (Modulation m : {Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16}) {
    const WifiNPhy fast(config(m));
    const oracle::WifiN ref(config(m));
    const unsigned ncbps = wifi_n_coded_bits_per_symbol(m);
    for (int iter = 0; iter < 3; ++iter) {
      const std::size_t n_sym = 1 + rng.uniform_int(6);
      const Bits coded = rng.bits(n_sym * ncbps);
      difftest::expect_same_samples(
          fast.modulate_coded_symbols(coded), ref.modulate_coded_symbols(coded),
          "ofdm modulate",
          difftest::ctx("mod=%u iter=%d", static_cast<unsigned>(m), iter));
    }
  }
}

TEST(OfdmDiff, DemodulateSymbolBitsMatchesOracle) {
  Rng rng(difftest::kSeed ^ 4);
  for (Modulation m : {Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16}) {
    const WifiNPhy fast(config(m));
    const oracle::WifiN ref(config(m));
    const unsigned ncbps = wifi_n_coded_bits_per_symbol(m);
    for (int iter = 0; iter < 3; ++iter) {
      const std::size_t n_sym = 1 + rng.uniform_int(6);
      const Bits coded = rng.bits(n_sym * ncbps);
      const Iq iq =
          difftest::noisy(ref.modulate_coded_symbols(coded), rng, 5.0, 30.0);
      difftest::expect_same_bits(
          fast.demodulate_symbol_bits(iq, n_sym),
          ref.demodulate_symbol_bits(iq, n_sym), "ofdm demod bits",
          difftest::ctx("mod=%u iter=%d", static_cast<unsigned>(m), iter));
    }
  }
}

TEST(OfdmDiff, FullFrameMatchesOracle) {
  Rng rng(difftest::kSeed ^ 5);
  const WifiNPhy fast(config(Modulation::Qpsk));
  const oracle::WifiN ref(config(Modulation::Qpsk));
  for (int iter = 0; iter < 3; ++iter) {
    const Bytes payload = difftest::random_payload(rng, 64);
    const Iq iq =
        difftest::noisy(fast.modulate_frame(payload), rng, 10.0, 30.0);
    const auto rf = fast.demodulate_frame(iq, payload.size());
    const auto rr = ref.demodulate_frame(iq, payload.size());
    EXPECT_EQ(rf.ok, rr.ok) << "iter=" << iter;
    difftest::expect_same_bits(rf.payload, rr.payload, "wifi_n frame payload",
                               difftest::ctx("iter=%d", iter));
  }
}

}  // namespace
}  // namespace ms
