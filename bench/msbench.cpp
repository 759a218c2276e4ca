// msbench: the one driver for every experiment that reproduces the
// paper's evaluation (Tables 1–6, Figs 4–18), its ablations and the
// robustness and throughput studies.
//
//   msbench <experiment> [flags]     run one experiment
//   msbench --help                   list the flags and the experiments
//
// Each row of kExperiments is one experiment; bench/bench_<id>.cpp
// defines its run function, which prints the table or figure and
// returns the exit status.  The driver alone parses the flags
// (sim/runner/cli.h) and writes --metrics-out / --trace-out /
// --manifest-out, so every experiment takes the same CLI.  It runs one
// experiment per process, so experiments share no global state.  The
// manifest names the run bench_<id>, as the per-experiment binaries
// this driver replaced did, so config hashes and baselines carry over.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "experiments.h"
#include "sim/runner/cli.h"

namespace ms::bench {
namespace {

struct Experiment {
  const char* id;
  /// Trials per point when --trials is absent; 0 = the experiment's
  /// trial counts are fixed, and --trials is an error.
  std::size_t default_trials;
  /// false = the experiment's seeds are fixed, and --seed is an error.
  bool seeded;
  /// Gets the flags with --trials resolved; returns the exit status.
  int (*run)(const CliOptions&);
};

// bench/CMakeLists.txt lists the same ids: it compiles each
// bench_<id>.cpp into msbench and smoke-tests each row.
constexpr Experiment kExperiments[] = {
    {"table1_comparison", 0, false, table1_comparison},
    {"table2_resources", 0, false, table2_resources},
    {"table3_power", 0, false, table3_power},
    {"table4_energy", 0, false, table4_energy},
    {"table5_identpower", 0, false, table5_identpower},
    {"table6_modes", 0, false, table6_modes},
    {"fig4_rectifier", 0, false, fig4_rectifier},
    {"fig5_templates", 0, false, fig5_templates},
    {"fig6_ordering", 0, false, fig6_ordering},
    {"fig7_ordered", 200, true, fig7_ordered},
    {"fig8_lowrate", 0, false, fig8_lowrate},
    {"fig9_baselines", 0, false, fig9_baselines},
    {"fig12_tradeoffs", 0, false, fig12_tradeoffs},
    {"fig13_los", 0, false, fig13_los},
    {"fig14_nlos", 0, false, fig14_nlos},
    {"fig15_occlusion", 0, false, fig15_occlusion},
    {"fig16_collisions", 0, false, fig16_collisions},
    {"fig17_refmod", 0, false, fig17_refmod},
    {"fig18_diversity", 0, true, fig18_diversity},
    {"sec221_downlink", 0, false, sec221_downlink},
    {"mcs_rates", 0, false, mcs_rates},
    {"waterfalls", 0, false, waterfalls},
    {"validation_waveform", 0, false, validation_waveform},
    {"ablation_fec", 0, false, ablation_fec},
    {"ablation_filter", 0, false, ablation_filter},
    {"ablation_quantization", 0, false, ablation_quantization},
    {"ablation_sensing", 0, false, ablation_sensing},
    {"ablation_snr", 0, false, ablation_snr},
    {"ablation_wakeup", 0, false, ablation_wakeup},
    {"robustness_faults", 0, false, robustness_faults},
    {"robustness_multipath", 0, false, robustness_multipath},
    {"robustness_preambles", 0, false, robustness_preambles},
    {"robustness_workloads", 5, true, robustness_workloads},
    {"ident_throughput", 32, true, ident_throughput},
    {"phy_throughput", 24, true, phy_throughput},
    {"runner_scaling", 60, true, runner_scaling},
};

std::string usage() {
  std::string u = cli_usage("msbench <experiment>");
  u += "experiments (and the per-experiment flags each takes):\n";
  for (const Experiment& e : kExperiments) {
    std::string line = std::string("  ") + e.id;
    if (e.default_trials || e.seeded) line.resize(24, ' ');
    if (e.default_trials)
      line += " --trials (default " + std::to_string(e.default_trials) + ")";
    if (e.seeded) line += " --seed";
    u += line + '\n';
  }
  return u;
}

}  // namespace
}  // namespace ms::bench

int main(int argc, char** argv) {
  using ms::bench::Experiment;
  using ms::bench::kExperiments;
  if (argc < 2) {
    std::fprintf(stderr, "error: name an experiment\n%s",
                 ms::bench::usage().c_str());
    return 2;
  }
  if (!std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "-h")) {
    std::printf("%s", ms::bench::usage().c_str());
    return 0;
  }
  const Experiment* exp = nullptr;
  for (const Experiment& e : kExperiments)
    if (!std::strcmp(argv[1], e.id)) exp = &e;
  if (!exp) {
    std::fprintf(stderr, "error: unknown experiment: %s\n%s", argv[1],
                 ms::bench::usage().c_str());
    return 2;
  }

  // The flags follow the id; "msbench <id>" names the command in usage
  // and error messages.
  const std::string command = std::string("msbench ") + exp->id;
  std::vector<const char*> args(argv + 1, argv + argc);
  args[0] = command.c_str();
  ms::CliOptions opts = ms::parse_cli_or_exit(
      static_cast<int>(args.size()), args.data(),
      std::string("bench_") + exp->id,
      {.trials = exp->default_trials != 0, .seed = exp->seeded});
  if (opts.trials == 0) opts.trials = exp->default_trials;
  const int status = exp->run(opts);
  const bool io_ok = ms::finish_bench_output(opts);
  return status != 0 ? status : (io_ok ? 0 : 1);
}
