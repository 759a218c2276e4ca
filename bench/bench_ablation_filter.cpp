// Ablation (§4.1.4 future work): "to protect BLE throughput in such
// scenarios, filters on the tag would be necessary".  Sweeps a tag-side
// channel filter's rejection and reruns the Fig 16 time-domain collision.
#include <cstdio>

#include "bench_util.h"
#include "experiments.h"
#include "sim/collision_experiment.h"

using namespace ms;

int ms::bench::ablation_filter(const CliOptions&) {
  bench::title("Ablation: tag filter",
               "BLE throughput under 802.11n collision vs filter rejection");
  const BackscatterLink link;
  std::printf("%-16s %16s %16s\n", "rejection (dB)", "BLE kbps", "BLE loss");
  bench::rule();
  for (double rej : {0.0, 3.0, 6.0, 10.0, 15.0, 20.0}) {
    CollisionSetup setup = fig16_time_collision();
    setup.tag_filter_rejection_db = rej;
    const CollisionResult r = run_collision(setup, link, 4.0);
    std::printf("%-16.0f %16.1f %15.1f%%\n", rej,
                r.b_collided.aggregate_bps() / 1e3,
                100.0 * r.b_loss_fraction);
  }
  bench::rule();
  bench::note("0 dB = the paper's filterless prototype (278 -> ~95 kbps);"
              " ~10 dB of rejection recovers most of the BLE throughput");
  return 0;
}
