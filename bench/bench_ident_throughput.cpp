// Identification-throughput microbench: packed XOR+popcount 1-bit
// scoring vs the byte-per-position reference kernel (the test-only
// oracle::one_bit_scores, tests/differential/oracles.h), on the Fig 7
// configuration (10 Msps, L_p = 20, L_t = 60, OneBit compute).
//
// The corpus of ADC traces is generated deterministically on the trial
// engine (so --metrics-out stays reproducible); the timing loops then
// run in the main thread, where no telemetry shard is installed, so
// nondeterministic repetition counts never leak into the metrics JSON.
// Before timing, every trace is scored by BOTH kernels and the score
// arrays are compared bitwise — a mismatch is a hard failure, making
// this bench double as a live equivalence check.
//
// Throughput is reported as ADC samples identified per second (each
// pass classifies every trace in the corpus).  The packed kernel's
// target is ≥3× the reference.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "oracles.h"
#include "sim/ident_experiment.h"
#include "sim/trace_io.h"

using namespace ms;

namespace {

struct Timing {
  double seconds = 0.0;
  std::size_t passes = 0;
  std::size_t samples = 0;  ///< trace samples classified across all passes
  double checksum = 0.0;    ///< defeats dead-code elimination
  double samples_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
  }
};

template <typename Score>
Timing time_kernel(Score score, const std::vector<Samples>& corpus,
                   double min_seconds) {
  std::size_t pass_samples = 0;
  for (const Samples& t : corpus) pass_samples += t.size();
  Timing out;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    for (const Samples& t : corpus) {
      const auto scores = score(t);
      for (double s : scores) out.checksum += s;
    }
    ++out.passes;
    out.samples += pass_samples;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  } while (out.seconds < min_seconds);
  return out;
}

}  // namespace

int ms::bench::ident_throughput(const CliOptions& opt) {
  const std::size_t trials = opt.trials;

  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.threads = opt.threads;
  if (opt.seed) cfg.seed = opt.seed;

  bench::title("ident throughput",
               "packed XOR+popcount vs reference 1-bit kernel");

  TrialRunner runner({cfg.threads, cfg.seed});
  const std::vector<Samples> corpus = runner.run_grid(
      kAllProtocols.size(), trials,
      [&](std::size_t point, std::size_t, Rng& rng) {
        return make_ident_trace(kAllProtocols[point], cfg, rng);
      });

  const ProtocolIdentifier packed(cfg.ident);
  const auto packed_scores = [&](const Samples& t) { return packed.scores(t); };
  const auto reference_scores = [&](const Samples& t) {
    return oracle::one_bit_scores(packed, t);
  };

  // Live equivalence gate: bitwise-identical score vectors on every
  // corpus trace, or the numbers below are meaningless.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto sp = packed_scores(corpus[i]);
    const auto sr = reference_scores(corpus[i]);
    if (std::memcmp(sp.data(), sr.data(), sizeof(sp)) != 0) {
      std::fprintf(stderr,
                   "FAIL: packed/reference score mismatch on trace %zu\n", i);
      return 1;
    }
  }
  std::printf("  equivalence: %zu traces, packed == reference bitwise\n",
              corpus.size());

  const double min_seconds = 0.25;
  const Timing tp = time_kernel(packed_scores, corpus, min_seconds);
  const Timing tr = time_kernel(reference_scores, corpus, min_seconds);

  bench::rule();
  std::printf("%-10s %8s %12s %14s\n", "kernel", "passes", "s/pass",
              "Msamples/s");
  bench::rule();
  std::printf("%-10s %8zu %12.6f %14.2f\n", "packed", tp.passes,
              tp.seconds / static_cast<double>(tp.passes),
              tp.samples_per_sec() / 1e6);
  std::printf("%-10s %8zu %12.6f %14.2f\n", "reference", tr.passes,
              tr.seconds / static_cast<double>(tr.passes),
              tr.samples_per_sec() / 1e6);
  bench::rule();
  const double speedup = tr.samples_per_sec() > 0.0
                             ? tp.samples_per_sec() / tr.samples_per_sec()
                             : 0.0;
  std::printf("  speedup: %.2fx (target: >=3x)   [checksums %.6f %.6f]\n",
              speedup, tp.checksum, tr.checksum);

  // Ledger: the equivalence gate is deterministic; throughputs are wall
  // clock and belong to the tolerance-gated timings section.
  bench::record_result("ident.equivalence_ok", 1.0);
  bench::record_timing("ident.packed_msps", tp.samples_per_sec() / 1e6);
  bench::record_timing("ident.reference_msps", tr.samples_per_sec() / 1e6);
  bench::record_timing("ident.speedup_x", speedup);

  if (!opt.out_dir.empty()) {
    const std::vector<CsvColumn> cols = {
        {"packed_samples_per_sec", {tp.samples_per_sec()}},
        {"reference_samples_per_sec", {tr.samples_per_sec()}},
        {"speedup", {speedup}}};
    save_csv(opt.out_dir + "/ident_throughput.csv", cols);
  }
  return 0;
}
