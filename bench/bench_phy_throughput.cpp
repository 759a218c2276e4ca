// PHY kernel throughput bench: the SIMD/streaming kernels in
// src/dsp/kernels/ vs their scalar oracles (the test-only
// ms_test_oracles library, tests/differential/oracles.h), end to end on
// four receive chains — ZigBee OQPSK despreading (CmacBank), 802.11b
// CCK demapping (planar codeword bank + arena chip collapse), BLE GFSK
// discrimination (fused middle-half kernel), and 802.11n OFDM demapping
// (planned FFT + cached interleaver).
//
// The corpus of noisy waveforms is generated deterministically on the
// trial engine (so --metrics-out stays reproducible); the timing loops
// run in the main thread.  Before timing, every trace is demodulated by
// BOTH sides and the outputs are compared bitwise — a mismatch is a
// hard failure, making this bench double as a live equivalence check
// (the same contract tests/differential/ sweeps more broadly).
//
// Throughput is reported as baseband IQ samples demodulated per second.
// The kernels' target is ≥3× the oracle on at least two chains.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "channel/awgn.h"
#include "experiments.h"
#include "oracles.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/zigbee/zigbee.h"
#include "sim/runner/trial_runner.h"
#include "sim/trace_io.h"

using namespace ms;

namespace {

struct Trace {
  Iq iq;
  std::size_t n = 0;  ///< symbols or bits, per the chain's demod call
};

/// Demodulates one trace and serializes the output to bytes, so the
/// equivalence gate and the timing checksum share code.
using Runner = std::function<std::vector<std::uint8_t>(const Trace&)>;

/// One kernel and its oracle.
struct Chain {
  std::string name;
  std::vector<Trace> corpus;
  Runner fast;
  Runner ref;
};

struct Timing {
  double seconds = 0.0;
  std::size_t passes = 0;
  std::size_t samples = 0;  ///< IQ samples demodulated across all passes
  std::uint64_t checksum = 0;
  double samples_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
  }
};

Timing time_chain(const Chain& chain, const Runner& run,
                  double min_seconds) {
  std::size_t pass_samples = 0;
  for (const Trace& t : chain.corpus) pass_samples += t.iq.size();
  Timing out;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    for (const Trace& t : chain.corpus)
      for (std::uint8_t b : run(t)) out.checksum += b;
    ++out.passes;
    out.samples += pass_samples;
    out.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (out.seconds < min_seconds);
  return out;
}

std::vector<std::uint8_t> bits_bytes(const Bits& bits) {
  return std::vector<std::uint8_t>(bits.begin(), bits.end());
}

std::vector<std::uint8_t> detects_bytes(
    const std::vector<ZigbeePhy::SymbolDetect>& d) {
  std::vector<std::uint8_t> out(d.size() * (1 + sizeof(Cf)));
  std::uint8_t* p = out.data();
  for (const auto& s : d) {
    *p++ = s.symbol;
    std::memcpy(p, &s.corr, sizeof(Cf));
    p += sizeof(Cf);
  }
  return out;
}

}  // namespace

int ms::bench::phy_throughput(const CliOptions& opt) {
  const std::size_t trials = opt.trials;
  const std::uint64_t seed = opt.seed ? opt.seed : 1;
  const double snr_db = 12.0;

  bench::title("phy throughput",
               "SIMD/streaming kernels vs scalar oracles, 4 receive chains");

  TrialRunner runner({opt.threads, seed});
  std::vector<Chain> chains;

  {  // ZigBee: 16-candidate coherent despreading.
    auto fast = std::make_shared<ZigbeePhy>();
    auto ref = std::make_shared<oracle::Zigbee>();
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          std::vector<std::uint8_t> syms(24);
          for (auto& s : syms) s = static_cast<std::uint8_t>(rng.uniform_int(16));
          Trace t;
          t.iq = add_awgn(ref->modulate_symbols(syms), snr_db, rng);
          t.n = syms.size();
          return t;
        });
    chains.push_back(
        {"zigbee", std::move(corpus),
         [fast](const Trace& t) {
           return detects_bytes(fast->detect_symbols(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return detects_bytes(ref->detect_symbols(t.iq, t.n));
         }});
  }

  {  // 802.11b @ 11 Mbps: CCK codeword demapping.
    WifiBConfig cfg;
    cfg.rate = WifiBRate::Cck11M;
    auto fast = std::make_shared<WifiBPhy>(cfg);
    auto ref = std::make_shared<oracle::WifiB>(cfg);
    const unsigned bps = wifi_b_bits_per_symbol(WifiBRate::Cck11M);
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          const Bits payload = rng.bits(64 * bps);
          Trace t;
          t.iq = add_awgn(fast->modulate_payload(payload), snr_db, rng);
          t.n = payload.size();
          return t;
        });
    chains.push_back(
        {"wifi_b_cck", std::move(corpus),
         [fast](const Trace& t) {
           return bits_bytes(fast->demodulate_air_bits(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return bits_bytes(ref->demodulate_air_bits(t.iq, t.n));
         }});
  }

  {  // BLE: GFSK discriminator demod.
    auto fast = std::make_shared<BlePhy>();
    auto ref = std::make_shared<oracle::Ble>();
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          const Bits air = rng.bits(256);
          Trace t;
          t.iq = add_awgn(fast->modulate_bits(air), snr_db, rng);
          t.n = air.size();
          return t;
        });
    chains.push_back(
        {"ble_gfsk", std::move(corpus),
         [fast](const Trace& t) {
           return bits_bytes(fast->demodulate_bits(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return bits_bytes(ref->demodulate_bits(t.iq, t.n));
         }});
  }

  {  // 802.11n: OFDM FFT + demap + deinterleave.
    WifiNConfig cfg;
    cfg.modulation = Modulation::Qam16;
    auto fast = std::make_shared<WifiNPhy>(cfg);
    auto ref = std::make_shared<oracle::WifiN>(cfg);
    const unsigned ncbps = wifi_n_coded_bits_per_symbol(Modulation::Qam16);
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          const std::size_t n_sym = 16;
          const Bits coded = rng.bits(n_sym * ncbps);
          Trace t;
          t.iq = add_awgn(ref->modulate_coded_symbols(coded), snr_db, rng);
          t.n = n_sym;
          return t;
        });
    chains.push_back(
        {"wifi_n_ofdm", std::move(corpus),
         [fast](const Trace& t) {
           return bits_bytes(fast->demodulate_symbol_bits(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return bits_bytes(ref->demodulate_symbol_bits(t.iq, t.n));
         }});
  }

  // Hard equivalence gate: bitwise-identical demod output on every
  // corpus trace, or the throughput numbers below are meaningless.
  for (const Chain& chain : chains) {
    for (std::size_t i = 0; i < chain.corpus.size(); ++i) {
      const auto bf = chain.fast(chain.corpus[i]);
      const auto br = chain.ref(chain.corpus[i]);
      if (bf.size() != br.size() ||
          std::memcmp(bf.data(), br.data(), bf.size()) != 0) {
        std::fprintf(stderr,
                     "FAIL: %s fast/reference output mismatch on trace %zu\n",
                     chain.name.c_str(), i);
        return 1;
      }
    }
    std::printf("  equivalence: %-12s %zu traces, fast == reference bitwise\n",
                chain.name.c_str(), chain.corpus.size());
  }

  const double min_seconds = 0.25;
  std::vector<CsvColumn> cols;
  std::size_t chains_at_target = 0;
  bench::rule();
  std::printf("%-12s %12s %12s %9s\n", "chain", "fast Msps", "ref Msps",
              "speedup");
  bench::rule();
  for (const Chain& chain : chains) {
    const Timing tf = time_chain(chain, chain.fast, min_seconds);
    const Timing tr = time_chain(chain, chain.ref, min_seconds);
    const double speedup = tr.samples_per_sec() > 0.0
                               ? tf.samples_per_sec() / tr.samples_per_sec()
                               : 0.0;
    if (speedup >= 3.0) ++chains_at_target;
    std::printf("%-12s %12.2f %12.2f %8.2fx\n", chain.name.c_str(),
                tf.samples_per_sec() / 1e6, tr.samples_per_sec() / 1e6,
                speedup);
    cols.push_back({chain.name + "_fast_samples_per_sec",
                    {tf.samples_per_sec()}});
    cols.push_back({chain.name + "_reference_samples_per_sec",
                    {tr.samples_per_sec()}});
    cols.push_back({chain.name + "_speedup", {speedup}});
    bench::record_timing(("phy." + chain.name + "_fast_msps").c_str(),
                         tf.samples_per_sec() / 1e6);
    bench::record_timing(("phy." + chain.name + "_speedup_x").c_str(),
                         speedup);
  }
  bench::rule();
  std::printf("  %zu/%zu chains at >=3x (target: >=3x on at least 2)\n",
              chains_at_target, chains.size());

  if (!opt.out_dir.empty())
    save_csv(opt.out_dir + "/phy_throughput.csv", cols);
  return 0;
}
