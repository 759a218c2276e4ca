// Fig 15: tag-data throughput when a drywall occludes the original
// channel — multiscatter's single-receiver decode vs the two-receiver
// Hitchhike and FreeRider baselines.  --out DIR dumps the rows as CSV.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "sim/occlusion_experiment.h"
#include "sim/trace_io.h"

using namespace ms;

int ms::bench::fig15_occlusion(const CliOptions& opt) {
  bench::title("Fig 15", "tag throughput with the original channel drywalled");
  const auto rows = occlusion_throughput(OcclusionScenario{});
  if (!opt.out_dir.empty()) {
    CsvColumn idx{"system_index", {}}, kbps{"tag_kbps", {}};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      idx.values.push_back(static_cast<double>(i));
      kbps.values.push_back(rows[i].tag_kbps);
    }
    const std::vector<CsvColumn> cols = {idx, kbps};
    save_csv(opt.out_dir + "/fig15_occlusion.csv", cols);
  }
  std::printf("%-20s %14s\n", "system", "tag kbps");
  bench::rule();
  for (const Fig15Row& r : rows)
    std::printf("%-20s %14.1f\n", r.system, r.tag_kbps);
  bench::rule();
  bench::note("paper: multiscatter 136 (BLE) / 121 (802.11b) kbps;"
              " Hitchhike 94; FreeRider 33");
  bench::note("multiscatter does not use the original channel at all, so"
              " the wall is irrelevant to it");
  return 0;
}
