// The experiments msbench runs, one function each: bench/bench_<id>.cpp
// defines <id>, and the table in msbench.cpp lists it.  Each prints its
// table or figure and returns the exit status.  The driver has parsed
// the flags, with --trials resolved to the experiment's default.
#pragma once

#include "sim/runner/cli.h"

namespace ms::bench {

int table1_comparison(const CliOptions&);
int table2_resources(const CliOptions&);
int table3_power(const CliOptions&);
int table4_energy(const CliOptions&);
int table5_identpower(const CliOptions&);
int table6_modes(const CliOptions&);
int fig4_rectifier(const CliOptions&);
int fig5_templates(const CliOptions&);
int fig6_ordering(const CliOptions&);
int fig7_ordered(const CliOptions&);
int fig8_lowrate(const CliOptions&);
int fig9_baselines(const CliOptions&);
int fig12_tradeoffs(const CliOptions&);
int fig13_los(const CliOptions&);
int fig14_nlos(const CliOptions&);
int fig15_occlusion(const CliOptions&);
int fig16_collisions(const CliOptions&);
int fig17_refmod(const CliOptions&);
int fig18_diversity(const CliOptions&);
int sec221_downlink(const CliOptions&);
int mcs_rates(const CliOptions&);
int waterfalls(const CliOptions&);
int validation_waveform(const CliOptions&);
int ablation_fec(const CliOptions&);
int ablation_filter(const CliOptions&);
int ablation_quantization(const CliOptions&);
int ablation_sensing(const CliOptions&);
int ablation_snr(const CliOptions&);
int ablation_wakeup(const CliOptions&);
int robustness_faults(const CliOptions&);
int robustness_multipath(const CliOptions&);
int robustness_preambles(const CliOptions&);
int robustness_workloads(const CliOptions&);

}  // namespace ms::bench
