// Ablation (footnote 6 future work): what channel sensing before the
// frequency shift buys.  Collision probability of the backscattered
// packet on the shift-target channel, across that channel's utilization.
#include <cstdio>

#include "bench_util.h"
#include "core/tag/channel_sense.h"
#include "experiments.h"

using namespace ms;

int ms::bench::ablation_sensing(const CliOptions&) {
  bench::title("Ablation: channel sensing",
               "shift-target collision probability vs channel utilization");
  const double burst_s = 400e-6;  // typical WiFi burst on the target
  const double tx_s = 300e-6;     // our backscattered packet
  std::printf("%-14s %16s %16s %10s\n", "target duty", "no sensing",
              "with sensing", "gain");
  bench::rule();
  for (double duty : {0.05, 0.1, 0.2, 0.4, 0.6}) {
    const double without =
        shift_collision_probability(duty, burst_s, tx_s, false);
    const double with = shift_collision_probability(duty, burst_s, tx_s, true);
    std::printf("%-14.2f %15.1f%% %15.1f%% %9.1fx\n", duty, 100.0 * without,
                100.0 * with, without / with);
  }
  bench::rule();
  bench::note("sensing removes the standing-busy term, leaving only"
              " traffic that arrives mid-transmission; the paper's tags"
              " shift blindly (footnote 6) and eat the full column 1");
  return 0;
}
