// Fig 9: the two problems of two-receiver baselines.
//   (a) Tag-data BER explodes when the original channel is occluded —
//       even with an error-free backscattered channel.
//   (b) Modulation offsets grow with range (up to 8 symbols), forcing
//       receiver synchronization.
#include <cstdio>

#include "bench_util.h"
#include "experiments.h"
#include "sim/occlusion_experiment.h"

using namespace ms;

int ms::bench::fig9_baselines(const CliOptions&) {
  bench::title("Fig 9a", "baseline tag BER vs original-channel occlusion");
  OcclusionScenario sc;
  std::printf("%-12s %14s %14s\n", "occlusion", "Hitchhike", "FreeRider");
  bench::rule();
  const auto hh = baseline_occlusion_ber(hitchhike_config(), sc);
  const auto fr = baseline_occlusion_ber(freerider_config(), sc);
  const char* walls[3] = {"none", "wooden wall", "concrete"};
  for (int i = 0; i < 3; ++i)
    std::printf("%-12s %13.1f%% %13.1f%%\n", walls[i], hh[i] * 100.0,
                fr[i] * 100.0);
  bench::note("paper: 0.2% with no occlusion up to ~59% behind concrete");

  bench::title("Fig 9b", "modulation offset vs range (Hitchhike)");
  const TwoReceiverBaseline sys(hitchhike_config());
  Rng rng(1);
  std::printf("%-10s %12s %14s\n", "range (m)", "mean (sym)", "sampled (sym)");
  bench::rule();
  for (double d : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0}) {
    double sampled = 0.0;
    for (int t = 0; t < 50; ++t) sampled += sys.sample_offset_symbols(d, rng);
    std::printf("%-10.0f %12.1f %14.1f\n", d, sys.mean_offset_symbols(d),
                sampled / 50.0);
  }
  bench::note("paper: offsets reach 8 bits (symbols) across ranges, making"
              " two-receiver synchronization mandatory");
  return 0;
}
