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
  /// false = the experiment runs no trial engine, or sweeps its own
  /// thread counts, and --threads is an error.
  bool threaded;
  /// Trials per point when --trials is absent; 0 = the experiment's
  /// trial counts are fixed, and --trials is an error.
  std::size_t default_trials;
  /// false = the experiment's seeds are fixed, and --seed is an error.
  bool seeded;
  /// false = the experiment synthesizes no identification waveform
  /// (sim/ident_experiment.h), so it never reads the waveform cache, and
  /// --waveform-cache is an error.
  bool cached;
  /// Gets the flags with --trials resolved; returns the exit status.
  int (*run)(const CliOptions&);
};

// bench/CMakeLists.txt lists the same ids, and the threaded ones again:
// it compiles each bench_<id>.cpp into msbench and smoke-tests each
// row, with --threads 2 where the row takes it.
constexpr Experiment kExperiments[] = {
    {"table1_comparison", false, 0, false, false, table1_comparison},
    {"table2_resources", false, 0, false, false, table2_resources},
    {"table3_power", false, 0, false, false, table3_power},
    {"table4_energy", false, 0, false, false, table4_energy},
    {"table5_identpower", false, 0, false, false, table5_identpower},
    {"table6_modes", false, 0, false, false, table6_modes},
    {"fig4_rectifier", false, 0, false, false, fig4_rectifier},
    {"fig5_templates", true, 0, false, true, fig5_templates},
    {"fig6_ordering", true, 0, false, true, fig6_ordering},
    {"fig7_ordered", true, 200, true, true, fig7_ordered},
    {"fig8_lowrate", true, 0, false, true, fig8_lowrate},
    {"fig9_baselines", false, 0, false, false, fig9_baselines},
    {"fig12_tradeoffs", false, 0, false, false, fig12_tradeoffs},
    {"fig13_los", false, 0, false, false, fig13_los},
    {"fig14_nlos", false, 0, false, false, fig14_nlos},
    {"fig15_occlusion", false, 0, false, false, fig15_occlusion},
    {"fig16_collisions", false, 0, false, false, fig16_collisions},
    {"fig17_refmod", false, 0, false, false, fig17_refmod},
    {"fig18_diversity", false, 0, true, false, fig18_diversity},
    {"sec221_downlink", false, 0, false, false, sec221_downlink},
    {"mcs_rates", false, 0, false, false, mcs_rates},
    {"waterfalls", false, 0, false, false, waterfalls},
    {"validation_waveform", false, 0, false, false, validation_waveform},
    {"ablation_fec", false, 0, false, false, ablation_fec},
    {"ablation_filter", false, 0, false, false, ablation_filter},
    {"ablation_quantization", true, 0, false, true, ablation_quantization},
    {"ablation_sensing", false, 0, false, false, ablation_sensing},
    {"ablation_snr", true, 0, false, true, ablation_snr},
    {"ablation_wakeup", false, 0, false, false, ablation_wakeup},
    {"robustness_faults", true, 0, false, true, robustness_faults},
    {"robustness_multipath", true, 0, false, true, robustness_multipath},
    {"robustness_preambles", true, 0, false, true, robustness_preambles},
    {"robustness_workloads", true, 5, true, false, robustness_workloads},
    {"ident_throughput", true, 32, true, true, ident_throughput},
    {"phy_throughput", true, 24, true, false, phy_throughput},
    {"runner_scaling", false, 60, true, true, runner_scaling},
};

std::string usage() {
  std::string u = cli_usage("msbench <experiment>");
  u += "experiments (and the per-experiment flags each takes):\n";
  for (const Experiment& e : kExperiments) {
    std::string line = std::string("  ") + e.id;
    if (e.threaded || e.default_trials || e.seeded || e.cached)
      line.resize(24, ' ');
    if (e.threaded) line += " --threads";
    if (e.default_trials)
      line += " --trials (default " + std::to_string(e.default_trials) + ")";
    if (e.seeded) line += " --seed";
    if (e.cached) line += " --waveform-cache";
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
      {.threads = exp->threaded,
       .trials = exp->default_trials != 0,
       .seed = exp->seeded,
       .waveform_cache = exp->cached});
  if (opts.trials == 0) opts.trials = exp->default_trials;
  const int status = exp->run(opts);
  const bool io_ok = ms::finish_bench_output(opts);
  return status != 0 ? status : (io_ok ? 0 : 1);
}
