// Ablation: sensitivity of identification accuracy to the tag's RF
// operating SNR.  Our experiments anchor the tag at 20 dB (0.8 m from
// the source); this sweep shows how much margin the identifier has
// before the Fig 7/8 results degrade.
#include <cstdio>

#include "bench_util.h"
#include "experiments.h"
#include "sim/ident_experiment.h"

using namespace ms;

int ms::bench::ablation_snr(const CliOptions& opt) {
  bench::title("Ablation: operating SNR",
               "avg blind accuracy vs RF SNR at the tag");
  std::printf("%-10s %16s %16s\n", "SNR (dB)", "20M fullprec",
              "2.5M 1-bit ext");
  bench::rule();
  for (double snr : {8.0, 12.0, 16.0, 20.0, 24.0}) {
    IdentTrialConfig full;
    full.ident.templates.adc_rate_hz = 20e6;
    full.ident.templates.preprocess_len = 40;
    full.ident.templates.match_len = 120;
    full.rf_snr_db = snr;
    full.threads = opt.threads;
    IdentTrialConfig low;
    low.ident.templates.adc_rate_hz = 2.5e6;
    low.ident.templates.preprocess_len = 20;
    low.ident.templates.match_len = 80;
    low.ident.compute = ComputeMode::OneBit;
    low.rf_snr_db = snr;
    low.threads = opt.threads;
    std::printf("%-10.0f %16.3f %16.3f\n", snr,
                run_ident_experiment(full, 80).average_accuracy(),
                run_ident_experiment(low, 80).average_accuracy());
  }
  bench::rule();
  bench::note("accuracy is SNR-limited below ~12 dB and compute-limited"
              " above ~16 dB; the 0.8 m tag-to-source geometry keeps the"
              " tag comfortably in the compute-limited regime");
  return 0;
}
