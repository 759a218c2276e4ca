// Fig 16: diverse excitations colliding at the tag.
//   (a/b) 802.11n (2000 pkt/s, 300 B) + BLE (34 pkt/s) overlapping in
//         time: the BLE flow loses most of its throughput, WiFi barely
//         notices.
//   (c/d) 802.11n + ZigBee on adjacent frequencies without time overlap:
//         ordered matching separates the packets; neither flow suffers.
// --out DIR additionally dumps each scenario's distance sweep (1..10 m)
// as CSV.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "sim/collision_experiment.h"
#include "sim/trace_io.h"

using namespace ms;

namespace {

void dump_sweep(const std::string& dir, const char* file,
                const CollisionSetup& setup) {
  const BackscatterLink link;
  std::vector<double> distances;
  for (double d = 1.0; d <= 10.0; d += 1.0) distances.push_back(d);
  const auto sweep = run_collision_sweep(setup, link, distances);
  CsvColumn d{"distance_m", {}}, as{"a_solo_kbps", {}},
      ac{"a_collided_kbps", {}}, bs{"b_solo_kbps", {}},
      bc{"b_collided_kbps", {}};
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    d.values.push_back(distances[i]);
    as.values.push_back(sweep[i].a_solo.aggregate_bps() / 1e3);
    ac.values.push_back(sweep[i].a_collided.aggregate_bps() / 1e3);
    bs.values.push_back(sweep[i].b_solo.aggregate_bps() / 1e3);
    bc.values.push_back(sweep[i].b_collided.aggregate_bps() / 1e3);
  }
  const std::vector<CsvColumn> cols = {d, as, ac, bs, bc};
  save_csv(dir + "/" + file, cols);
}

void report(const char* id, const char* what, const CollisionSetup& setup) {
  bench::title(id, what);
  const CollisionResult r = run_collision(setup, BackscatterLink{}, 4.0);
  std::printf("%-10s %14s %14s %10s\n", "flow", "solo (kbps)",
              "collided (kbps)", "loss");
  bench::rule();
  std::printf("%-10s %14.1f %14.1f %9.1f%%\n",
              std::string(protocol_name(setup.a.protocol)).c_str(),
              r.a_solo.aggregate_bps() / 1e3, r.a_collided.aggregate_bps() / 1e3,
              100.0 * r.a_loss_fraction);
  std::printf("%-10s %14.1f %14.1f %9.1f%%\n",
              std::string(protocol_name(setup.b.protocol)).c_str(),
              r.b_solo.aggregate_bps() / 1e3, r.b_collided.aggregate_bps() / 1e3,
              100.0 * r.b_loss_fraction);
}
}  // namespace

int ms::bench::fig16_collisions(const CliOptions& opt) {
  report("Fig 16a/b", "time-domain collision: 802.11n + BLE",
         fig16_time_collision());
  bench::note("paper: BLE drops 278 -> 92 kbps; 802.11n barely changes");

  report("Fig 16c/d", "frequency-domain collision: 802.11n + ZigBee",
         fig16_frequency_collision());
  bench::note("paper: neither ZigBee nor 802.11n throughput is much affected");

  if (!opt.out_dir.empty()) {
    dump_sweep(opt.out_dir, "fig16_time_collision.csv",
               fig16_time_collision());
    dump_sweep(opt.out_dir, "fig16_frequency_collision.csv",
               fig16_frequency_collision());
  }
  return 0;
}
