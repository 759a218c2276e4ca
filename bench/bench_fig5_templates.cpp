// Fig 5: (a) the four protocols' envelope shapes are distinguishable;
// (b) identification accuracy at 20 Msps full precision across template
// window splits (L_p, L_t), reproducing the exhaustive search that found
// (40, 120) with ≥ 99.3% minimum accuracy.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "dsp/ops.h"
#include "experiments.h"
#include "sim/ident_experiment.h"

using namespace ms;

int ms::bench::fig5_templates(const CliOptions& opt) {
  bench::title("Fig 5a", "envelope shape statistics of the four preambles");
  std::printf("%-10s %10s %12s %14s\n", "protocol", "mean (V)", "stddev (V)",
              "peak/mean");
  bench::rule();
  for (Protocol p : kAllProtocols) {
    const Iq pre = clean_preamble(p, true);
    const Samples trace =
        acquire_trace(pre, native_sample_rate(p), 20e6, FrontEndConfig{});
    const double m = mean(trace);
    std::printf("%-10s %10.3f %12.4f %14.2f\n",
                std::string(protocol_name(p)).c_str(), m, stddev(trace),
                peak_abs(trace) / m);
  }
  bench::note("distinct ripple textures per protocol (paper Fig 5a)");

  bench::title("Fig 5b", "accuracy vs (L_p, L_t) at 20 Msps, full precision");
  std::printf("%-6s %-6s %10s %10s   per-protocol\n", "L_p", "L_t", "min acc",
              "avg acc");
  bench::rule();
  double best_avg = 0.0;
  std::size_t best_lp = 0, best_lt = 0;
  for (std::size_t lp : {20u, 40u, 60u}) {
    for (std::size_t lt : {60u, 100u, 120u}) {
      if (lp + lt > 160) continue;  // one 8 µs window at 20 Msps
      IdentTrialConfig cfg;
      cfg.ident.templates.adc_rate_hz = 20e6;
      cfg.ident.templates.preprocess_len = lp;
      cfg.ident.templates.match_len = lt;
      cfg.threads = opt.threads;
      const IdentResult r = run_ident_experiment(cfg, 120);
      double min_acc = 1.0;
      for (Protocol p : kAllProtocols) min_acc = std::min(min_acc, r.accuracy(p));
      std::printf("%-6zu %-6zu %10.3f %10.3f   [", lp, lt, min_acc,
                  r.average_accuracy());
      for (Protocol p : kAllProtocols) std::printf(" %.3f", r.accuracy(p));
      std::printf(" ]\n");
      if (r.average_accuracy() > best_avg) {
        best_avg = r.average_accuracy();
        best_lp = lp;
        best_lt = lt;
      }
    }
  }
  bench::rule();
  std::printf("  best split: L_p=%zu, L_t=%zu → avg %.3f\n", best_lp, best_lt,
              best_avg);
  bench::note("paper: (L_p=40, L_t=120) reaches 99.3%% min / 99.7%% avg");
  return 0;
}
