// Differential gate for the identification front end.  fir_filter runs
// its interior outputs through a blocked kernel, and rf_envelope fuses
// envelope(), discriminate() and the FM-to-AM clamp into one pass that
// skips std::arg on provably saturated phase steps.  Both must return
// exactly what the scalar code returned, bit for bit, on every input:
// odd and even tap counts, every length around the edges and blocks,
// signed zeros, infinities and NaNs, and phase steps right at the clamp
// and the skip thresholds.  That scalar code lives on here, verbatim, as
// the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/ident/frontend.h"
#include "diff_harness.h"
#include "dsp/fir.h"
#include "dsp/mixer.h"
#include "dsp/ops.h"
#include "phy/zigbee/zigbee.h"

namespace ms {
namespace {

namespace oracle {

template <typename T>
std::vector<T> convolve_same(std::span<const T> x, std::span<const float> taps) {
  MS_CHECK(!taps.empty());
  std::vector<T> out(x.size(), T{});
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps.size() / 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    T acc{};
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::ptrdiff_t j =
          static_cast<std::ptrdiff_t>(i) + delay - static_cast<std::ptrdiff_t>(k);
      if (j >= 0 && j < static_cast<std::ptrdiff_t>(x.size()))
        acc += x[static_cast<std::size_t>(j)] * taps[k];
    }
    out[i] = acc;
  }
  return out;
}

Samples fir_filter(std::span<const float> x, std::span<const float> taps) {
  return convolve_same<float>(x, taps);
}

Iq fir_filter(std::span<const Cf> x, std::span<const float> taps) {
  return convolve_same<Cf>(x, taps);
}

Samples rf_envelope(std::span<const Cf> iq, double sample_rate_hz,
                    const FrontEndConfig& cfg) {
  MS_CHECK(sample_rate_hz > 0.0);
  if (iq.empty()) return {};
  const double cutoff_frac =
      std::min(0.49, cfg.bandwidth_hz / sample_rate_hz);
  const std::vector<float> taps =
      design_lowpass(cutoff_frac, cfg.lowpass_taps);
  const Iq filtered = fir_filter(iq, taps);
  Samples env = envelope(filtered);

  // FM-to-AM conversion: gain slope of the matching network.  The slope
  // is only linear within the network's passband, so the frequency
  // excursion saturates at ±fm_ref — otherwise the near-±π phase jumps
  // of PSK transitions (whose sign is noise-random) would swing the gain
  // wildly instead of being a small dip.
  const Samples inst_freq = discriminate(filtered, sample_rate_hz);
  const float f_sat = static_cast<float>(cfg.fm_ref_hz);
  for (std::size_t i = 0; i < env.size(); ++i) {
    float f = i < inst_freq.size() ? inst_freq[i] : 0.0f;
    f = std::clamp(f, -f_sat, f_sat);
    const double gain =
        1.0 + cfg.fm_to_am_gain * static_cast<double>(f) / cfg.fm_ref_hz;
    env[i] *= static_cast<float>(gain);
  }

  for (float& v : env) v *= static_cast<float>(cfg.peak_voltage);
  return env;
}

}  // namespace oracle

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Every front-end rate: the native rates of the four protocols, plus
/// 2 Msps, where 1.001·θ ≥ π/2 and no step may skip std::arg.
constexpr double kRates[] = {8e6, 20e6, 22e6, 2e6};

/// Phase step θ (radians per sample) of a ±fm_ref tone at `rate`.
double theta(double rate) { return 2.0 * M_PI * FrontEndConfig{}.fm_ref_hz / rate; }

/// The tap sets under test: windowed-sinc low-passes with odd counts,
/// Gaussian pulse shapers with odd and even counts, and short or long
/// even random sets with signed zeros among the taps.
std::vector<std::vector<float>> tap_sets(Rng& rng) {
  std::vector<std::vector<float>> sets;
  for (std::size_t n : {3u, 11u, 25u, 31u, 63u})
    sets.push_back(design_lowpass(0.2 + 0.25 * rng.uniform(), n));
  sets.push_back(design_lowpass(0.49, 31));  // the 8 Msps front end
  sets.push_back(design_gaussian(0.5, 8));   // 25 taps
  sets.push_back(design_gaussian(0.5, 3));   // 10 taps
  sets.push_back(design_gaussian(0.3, 5, 4));  // 21 taps
  for (std::size_t n : {1u, 2u, 4u, 32u}) {
    std::vector<float> t(n);
    for (float& v : t) v = static_cast<float>(rng.normal());
    if (n >= 4) {
      t[1] = 0.0f;
      t[2] = -0.0f;
    }
    sets.push_back(std::move(t));
  }
  return sets;
}

/// Lengths around the edges and block boundaries of an L-tap filter:
/// 0, 1, 2, L−1, L, L+1, every interior count 0..40 (blocks hold 16
/// real or 8 complex outputs), and two 1400–1800-sample traces.
std::vector<std::size_t> lengths(std::size_t taps, Rng& rng) {
  std::vector<std::size_t> out = {0, 1, 2, taps - 1, taps, taps + 1};
  for (std::size_t interior = 0; interior <= 40; ++interior)
    out.push_back(2 * (taps / 2) + interior);
  for (int r = 0; r < 2; ++r) out.push_back(1400 + rng.uniform_int(401));
  return out;
}

float special(Rng& rng) {
  constexpr float kSpecial[] = {0.0f, -0.0f, kInf, -kInf, kNan};
  return kSpecial[rng.uniform_int(5)];
}

/// Random complex samples; with `specials`, about 1 in 40 components is
/// ±0.0, ±inf or NaN.
Iq random_iq(std::size_t n, Rng& rng, bool specials) {
  Iq x(n);
  for (Cf& v : x) {
    float re = static_cast<float>(rng.normal());
    float im = static_cast<float>(rng.normal());
    if (specials && rng.chance(0.025)) re = special(rng);
    if (specials && rng.chance(0.025)) im = special(rng);
    v = Cf(re, im);
  }
  return x;
}

/// Unit-amplitude tone advancing `step` radians per sample.
Iq tone(std::size_t n, double step) {
  Iq x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = step * static_cast<double>(i);
    x[i] = Cf(static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph)));
  }
  return x;
}

void expect_same_envelope(std::span<const Cf> iq, double rate,
                          const std::string& ctx,
                          const FrontEndConfig& cfg = {}) {
  difftest::expect_same_floats(rf_envelope(iq, rate, cfg),
                               oracle::rf_envelope(iq, rate, cfg),
                               "rf_envelope", ctx);
}

TEST(FrontendDiff, FirMatchesOracleAcrossTapsAndLengths) {
  Rng rng(difftest::kSeed);
  for (const std::vector<float>& taps : tap_sets(rng))
    for (std::size_t n : lengths(taps.size(), rng))
      for (bool specials : {false, true}) {
        const std::string ctx = difftest::ctx(
            "taps=%zu n=%zu specials=%d", taps.size(), n, int{specials});
        const Iq x = random_iq(n, rng, specials);
        difftest::expect_same_samples(fir_filter(x, taps),
                                      oracle::fir_filter(x, taps),
                                      "complex fir", ctx);
        Samples r(n);
        for (std::size_t i = 0; i < n; ++i) r[i] = x[i].real();
        difftest::expect_same_floats(fir_filter(r, taps),
                                     oracle::fir_filter(r, taps),
                                     "real fir", ctx);
      }
}

TEST(FrontendDiff, EnvelopeMatchesOracleAcrossRatesAndLengths) {
  Rng rng(difftest::kSeed ^ 1);
  for (double rate : kRates)
    for (std::size_t n : lengths(FrontEndConfig{}.lowpass_taps, rng))
      for (bool specials : {false, true})
        expect_same_envelope(
            random_iq(n, rng, specials), rate,
            difftest::ctx("rate=%g n=%zu specials=%d", rate, n, int{specials}));
}

TEST(FrontendDiff, EnvelopeMatchesOracleOnRandomPhaseWalks) {
  // The front end's real diet: constant-envelope phase walks whose steps
  // straddle ±θ, with noise and amplitude ripple.
  Rng rng(difftest::kSeed ^ 2);
  for (double rate : kRates)
    for (double spread : {0.3, 1.0, 3.0}) {
      const std::size_t n = 1400 + rng.uniform_int(401);
      Iq x(n);
      double phase = 0.0;
      for (Cf& v : x) {
        phase += rng.normal(0.0, spread * theta(rate));
        const double amp = 1.0 + 0.1 * rng.normal();
        v = Cf(static_cast<float>(amp * std::cos(phase)),
               static_cast<float>(amp * std::sin(phase)));
      }
      expect_same_envelope(x, rate,
                           difftest::ctx("rate=%g spread=%g", rate, spread));
    }
}

TEST(FrontendDiff, PhaseStepsAtClampAndSkipThresholds) {
  // Tones whose filtered phase step sits at θ(1 ± 1e-7) (the clamp
  // decides), θ(1 ± 1e-3), 1.001·θ(1 ± 1e-7) (the skip test decides) and
  // ±π, in both directions.
  for (double rate : kRates)
    for (double rel : {1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-3, 1.0 + 1e-3,
                       1.001 * (1.0 - 1e-7), 1.001 * (1.0 + 1e-7),
                       M_PI / theta(rate)})
      for (double sign : {1.0, -1.0}) {
        const double step = sign * rel * theta(rate);
        expect_same_envelope(tone(1600, step), rate,
                             difftest::ctx("rate=%g step=%.17g", rate, step));
      }
}

TEST(FrontendDiff, MskAtExactlyFmRef) {
  // MSK steps exactly ±θ per sample: ZigBee's OQPSK half-sine chips at
  // 8 Msps, and a synthetic walk with random ±θ steps at every rate.
  Rng rng(difftest::kSeed ^ 3);
  const ZigbeePhy phy;
  std::vector<std::uint8_t> symbols(16);
  for (auto& s : symbols) s = static_cast<std::uint8_t>(rng.uniform_int(16));
  expect_same_envelope(phy.modulate_symbols(symbols), phy.sample_rate_hz(),
                       "zigbee");
  for (double rate : kRates) {
    Iq x(1600);
    double phase = 0.0;
    for (Cf& v : x) {
      phase += rng.chance(0.5) ? theta(rate) : -theta(rate);
      v = Cf(static_cast<float>(std::cos(phase)),
             static_cast<float>(std::sin(phase)));
    }
    expect_same_envelope(x, rate, difftest::ctx("msk rate=%g", rate));
  }
}

TEST(FrontendDiff, ZeroProductTakesTheArgPath) {
  // An impulse followed by silence: the last nonzero filtered sample
  // steps into an exact zero, so the conj product is (±0, ±0) with a
  // nonzero |x[i]|.  atan2 gives ±0 or ±π there; a skip test that took
  // re ≤ 0 as saturated would scale that sample by 1 ± fm_to_am_gain.
  // The second impulse is tiny, with the imaginary sign flipped.
  for (double rate : kRates)
    for (float re : {1.0f, -1.0f, 0.0f})
      for (float im : {1.0f, -1.0f, 0.0f}) {
        Iq x(200, Cf(0.0f, 0.0f));
        x[60] = Cf(re, im);
        x[140] = Cf(re * 1e-30f, -im);
        expect_same_envelope(
            x, rate, difftest::ctx("rate=%g impulse=(%g,%g)", rate, re, im));
      }
}

TEST(FrontendDiff, NanAngleIsNotSaturated) {
  // A real-valued trace with one ±inf sample: the filtered step into it
  // has re = ±inf and im = inf·0 = NaN.  atan2(NaN, −inf) is NaN, so the
  // oracle's sample is NaN; a skip test that ignored NaN would give it
  // ±f_sat.
  Rng rng(difftest::kSeed ^ 4);
  for (double rate : kRates)
    for (float inf : {kInf, -kInf})
      for (int rep = 0; rep < 4; ++rep) {
        Iq x(300);
        for (Cf& v : x) v = Cf(static_cast<float>(rng.normal()), 0.0f);
        x[100 + rng.uniform_int(100)] = Cf(inf, 0.0f);
        expect_same_envelope(
            x, rate, difftest::ctx("rate=%g inf=%g rep=%d", rate, inf, rep));
      }
}

TEST(FrontendDiff, InfiniteAndNanComponents) {
  // Samples with an infinite or NaN part make products whose naive
  // four-multiply form is NaN in both parts; the library product then
  // recovers the infinities, and so must the fused pass.
  for (double rate : kRates)
    for (Cf bad : {Cf(kInf, kNan), Cf(kNan, kInf), Cf(kInf, kInf),
                   Cf(-kInf, kInf), Cf(kNan, kNan), Cf(kInf, 0.0f),
                   Cf(0.0f, -kInf), Cf(-0.0f, -0.0f)}) {
      Iq x = tone(120, 0.7 * theta(rate));
      x[50] = bad;
      x[53] = bad;
      expect_same_envelope(
          x, rate,
          difftest::ctx("rate=%g bad=(%g,%g)", rate, bad.real(), bad.imag()));
    }
}

TEST(FrontendDiff, NonDefaultConfigs) {
  // 63 taps, a wide matching network, a negative FM-to-AM gain, and
  // fm_ref values that put 1.001·θ past π/2 or make θ vanish.
  Rng rng(difftest::kSeed ^ 5);
  FrontEndConfig cfg;
  for (double fm_ref : {500e3, 1.99e6, 2.5e6, 1.0, 0.0}) {
    cfg.fm_ref_hz = fm_ref;
    cfg.fm_to_am_gain = -0.35;
    cfg.bandwidth_hz = 9e6;
    cfg.lowpass_taps = 63;
    for (double rate : kRates) {
      Iq x(900);
      double phase = 0.0;
      for (Cf& v : x) {
        phase += rng.normal(0.0, 1.0);
        v = Cf(static_cast<float>(std::cos(phase)),
               static_cast<float>(std::sin(phase)));
      }
      expect_same_envelope(
          x, rate, difftest::ctx("fm_ref=%g rate=%g", fm_ref, rate), cfg);
    }
  }
}

}  // namespace
}  // namespace ms
