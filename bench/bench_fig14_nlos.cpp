// Fig 14: NLoS deployment (transmitter and tag in the office, receiver in
// the hallway behind drywall) — RSSI / BER / throughput vs distance.
// --out DIR dumps the series as CSV.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "sim/range_experiment.h"
#include "sim/trace_io.h"

using namespace ms;

namespace {
void dump_csv(const std::string& dir, Protocol p,
              const std::vector<RangePoint>& pts) {
  CsvColumn d{"distance_m", {}}, rssi{"rssi_dbm", {}}, pber{"prod_ber", {}},
      tber{"tag_ber", {}}, thr{"aggregate_kbps", {}};
  for (const RangePoint& pt : pts) {
    d.values.push_back(pt.distance_m);
    rssi.values.push_back(pt.rssi_dbm);
    pber.values.push_back(pt.productive_ber);
    tber.values.push_back(pt.tag_ber);
    thr.values.push_back(pt.aggregate_kbps);
  }
  const std::vector<CsvColumn> cols = {d, rssi, pber, tber, thr};
  save_csv(dir + "/fig14_" + std::string(protocol_name(p)) + ".csv", cols);
}
}  // namespace

int ms::bench::fig14_nlos(const CliOptions& opt) {
  bench::title("Fig 14", "NLoS: RSSI / BER / throughput vs distance");
  const RangeSweepConfig cfg = nlos_sweep_config();
  for (Protocol p : kAllProtocols) {
    if (!opt.out_dir.empty()) dump_csv(opt.out_dir, p, range_sweep(p, cfg));
    std::printf("\n  -- %s --\n", std::string(protocol_name(p)).c_str());
    std::printf("  %-8s %10s %12s %12s %12s\n", "d (m)", "RSSI(dBm)",
                "prod BER", "tag BER", "thr (kbps)");
    for (const RangePoint& pt : range_sweep(p, cfg)) {
      std::printf("  %-8.0f %10.1f %12.2e %12.2e %12.1f\n", pt.distance_m,
                  pt.rssi_dbm, pt.productive_ber, pt.tag_ber,
                  pt.aggregate_kbps);
    }
  }
  bench::rule();
  std::printf("  maximal NLoS ranges (LoS for comparison):\n");
  const RangeSweepConfig los = los_sweep_config();
  for (Protocol p : kAllProtocols)
    std::printf("    %-10s %5.1f m   (LoS %5.1f m)\n",
                std::string(protocol_name(p)).c_str(), max_range_m(p, cfg),
                max_range_m(p, los));
  bench::note("paper: NLoS 22/18/16 m for WiFi/ZigBee/BLE — uniformly below"
              " the LoS 28/22/20 m");
  return 0;
}
