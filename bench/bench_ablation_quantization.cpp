// Ablation (§2.3.1): what quantization and downsampling each cost.
// Accuracy across the (compute mode × sampling rate) grid — the axes of
// Figs 5b/7/8 shown together.
#include <cstdio>

#include "bench_util.h"
#include "experiments.h"
#include "sim/ident_experiment.h"

using namespace ms;

namespace {

double accuracy(double adc_rate, std::size_t lp, std::size_t lt,
                ComputeMode cm, std::size_t threads) {
  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = adc_rate;
  cfg.ident.templates.preprocess_len = lp;
  cfg.ident.templates.match_len = lt;
  cfg.ident.compute = cm;
  cfg.threads = threads;
  return run_ident_experiment(cfg, 80).average_accuracy();
}

}  // namespace

int ms::bench::ablation_quantization(const CliOptions& opt) {
  bench::title("Ablation: quantization x downsampling",
               "average blind accuracy (extended window)");
  std::printf("%-12s %16s %14s %10s\n", "ADC rate", "full precision",
              "1-bit quant.", "delta");
  bench::rule();
  const struct {
    double rate;
    std::size_t lp, lt;
  } rows[] = {{20e6, 40, 120}, {10e6, 20, 60}, {2.5e6, 20, 80}, {1e6, 8, 32}};
  for (const auto& row : rows) {
    const double full =
        accuracy(row.rate, row.lp, row.lt, ComputeMode::FullPrecision,
                 opt.threads);
    const double onebit =
        accuracy(row.rate, row.lp, row.lt, ComputeMode::OneBit, opt.threads);
    std::printf("%6.1f Msps %15.3f %14.3f %+10.3f\n", row.rate / 1e6, full,
                onebit, onebit - full);
  }
  bench::rule();
  bench::note("quantization costs a few points of accuracy at every rate"
              " (paper: 'degrade detection accuracy but not too much') in"
              " exchange for the 282x power saving of Table 5");
  return 0;
}
