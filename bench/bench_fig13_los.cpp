// Fig 13: LoS deployment — backscatter RSSI, BER, and aggregate
// throughput across tag→receiver distances, and the maximal ranges.
// --out DIR dumps the series as CSV (one file per protocol).
#include <cstdio>

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
  save_csv(dir + "/fig13_" + std::string(protocol_name(p)) + ".csv", cols);
}
}  // namespace

int ms::bench::fig13_los(const CliOptions& opt) {
  bench::title("Fig 13", "LoS: RSSI / BER / throughput vs distance");
  const RangeSweepConfig cfg = los_sweep_config();
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
  std::printf("  maximal LoS ranges:\n");
  for (Protocol p : kAllProtocols) {
    const double range_m = max_range_m(p, cfg);
    std::printf("    %-10s %5.1f m\n", std::string(protocol_name(p)).c_str(),
                range_m);
    bench::record_result(
        ("fig13.max_range_m." + std::string(protocol_name(p))).c_str(),
        range_m);
  }
  bench::note("paper: WiFi 28 m, ZigBee 22 m, BLE 20 m; low BER out to 16 m");
  return 0;
}
