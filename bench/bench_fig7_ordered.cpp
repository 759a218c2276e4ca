// Fig 7: blind vs ordered matching at 10 Msps with ±1 quantization.
// Ordered matching's thresholds and order come from the brute-force
// calibration the paper describes (§2.3.2).  Runs on the parallel trial
// engine: --threads N picks the worker count (output is byte-identical
// for any value), --trials overrides the 200-trial default, --out DIR
// dumps the two confusion matrices as CSV.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "sim/ident_experiment.h"
#include "sim/trace_io.h"

using namespace ms;

namespace {

void dump_confusion(const std::string& dir, const char* file,
                    const IdentResult& r) {
  std::vector<CsvColumn> cols;
  CsvColumn truth{"true_protocol", {}};
  for (Protocol p : kAllProtocols)
    truth.values.push_back(static_cast<double>(protocol_index(p)));
  cols.push_back(truth);
  const char* names[5] = {"det_wifi_b", "det_wifi_n", "det_ble",
                          "det_zigbee", "det_none"};
  for (std::size_t j = 0; j < 5; ++j) {
    CsvColumn c{names[j], {}};
    for (std::size_t i = 0; i < 4; ++i)
      c.values.push_back(static_cast<double>(r.confusion[i][j]));
    cols.push_back(c);
  }
  save_csv(dir + "/" + file, cols);
}

}  // namespace

int ms::bench::fig7_ordered(const CliOptions& opt) {
  const std::size_t trials = opt.trials;

  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.threads = opt.threads;
  if (opt.seed) cfg.seed = opt.seed;

  bench::title("Fig 7a", "blind matching at 10 Msps, 1-bit quantized");
  cfg.ident.decision = DecisionMode::Blind;
  const IdentResult blind = run_ident_experiment(cfg, trials);
  std::printf("%-10s %10s\n", "protocol", "accuracy");
  bench::rule();
  for (Protocol p : kAllProtocols)
    std::printf("%-10s %10.3f\n", std::string(protocol_name(p)).c_str(),
                blind.accuracy(p));
  std::printf("%-10s %10.3f   (paper: 0.906)\n", "average",
              blind.average_accuracy());

  bench::title("Fig 7b", "ordered matching (calibrated order + thresholds)");
  const OrderedCalibration cal = calibrate_ordered_matching(cfg, 60);
  cfg.ident.decision = DecisionMode::Ordered;
  cfg.ident.order = cal.order;
  cfg.ident.thresholds = cal.thresholds;
  std::printf("  calibrated order:");
  for (Protocol p : cal.order)
    std::printf(" %s", std::string(protocol_name(p)).c_str());
  std::printf("\n  thresholds:");
  for (Protocol p : cal.order)
    std::printf(" %.2f", cal.thresholds[protocol_index(p)]);
  std::printf("\n");
  const IdentResult ordered = run_ident_experiment(cfg, trials);
  bench::rule();
  for (Protocol p : kAllProtocols)
    std::printf("%-10s %10.3f\n", std::string(protocol_name(p)).c_str(),
                ordered.accuracy(p));
  std::printf("%-10s %10.3f   (paper: 0.976)\n", "average",
              ordered.average_accuracy());
  bench::rule();
  std::printf("  ordered − blind = %+.3f (paper: +0.070)\n",
              ordered.average_accuracy() - blind.average_accuracy());

  bench::record_result("fig7.blind_avg_accuracy", blind.average_accuracy());
  bench::record_result("fig7.ordered_avg_accuracy",
                       ordered.average_accuracy());
  for (Protocol p : kAllProtocols)
    bench::record_result(
        ("fig7.ordered_accuracy." + std::string(protocol_name(p))).c_str(),
        ordered.accuracy(p));

  if (!opt.out_dir.empty()) {
    dump_confusion(opt.out_dir, "fig7_blind_confusion.csv", blind);
    dump_confusion(opt.out_dir, "fig7_ordered_confusion.csv", ordered);
  }
  return 0;
}
