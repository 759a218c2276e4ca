// Fig 18: leveraging excitation diversity.
//   (a) Discontinuous excitations: alternating 802.11b / 802.11n carriers
//       — the multiscatter tag transmits continuously while the
//       single-protocol tag idles half the time.
//   (b) Intelligent carrier pick: abundant 802.11n vs spotty 802.11b with
//       a 6.3 kbps smart-bracelet goodput goal.
// --seed S overrides the default; --out DIR dumps the Fig 18a timeline
// as CSV.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "sim/diversity_experiment.h"
#include "sim/trace_io.h"

using namespace ms;

int ms::bench::fig18_diversity(const CliOptions& opt) {
  const BackscatterLink link;

  bench::title("Fig 18a", "uninterrupted backscatter over alternating carriers");
  const DiversityResult r = run_discontinuous_excitations(
      link, 4.0, 60.0, 0.5, opt.seed ? opt.seed : 7);
  if (!opt.out_dir.empty()) {
    CsvColumn t{"t_s", {}}, multi{"multiscatter_kbps", {}},
        single{"single_protocol_kbps", {}};
    for (const DiversitySlot& s : r.timeline) {
      t.values.push_back(s.t_s);
      multi.values.push_back(s.multiscatter_kbps);
      single.values.push_back(s.single_protocol_kbps);
    }
    const std::vector<CsvColumn> cols = {t, multi, single};
    save_csv(opt.out_dir + "/fig18_diversity_timeline.csv", cols);
  }
  std::printf("  %-8s %18s %18s\n", "t (s)", "multiscatter kbps",
              "802.11b-only kbps");
  for (std::size_t i = 0; i < r.timeline.size(); i += 4) {
    const DiversitySlot& s = r.timeline[i];
    std::printf("  %-8.1f %18.1f %18.1f\n", s.t_s, s.multiscatter_kbps,
                s.single_protocol_kbps);
  }
  bench::rule();
  std::printf("  busy fraction: multiscatter %.2f vs single-protocol %.2f\n",
              r.multiscatter_busy_fraction, r.single_busy_fraction);
  std::printf("  mean tag throughput: %.1f vs %.1f kbps\n",
              r.multiscatter_mean_kbps, r.single_mean_kbps);
  bench::note("paper: the 802.11b tag idles 50% of the time; the"
              " multiscatter tag rides both carriers");

  bench::title("Fig 18b", "intelligent carrier pick (goal 6.3 kbps)");
  const CarrierPickResult pick = run_carrier_pick(link, 4.0);
  std::printf("  picked carrier: %s\n",
              std::string(protocol_name(pick.picked)).c_str());
  std::printf("  multiscatter goodput: %.1f kbps (goal %s)\n",
              pick.multiscatter_goodput_kbps,
              pick.multiscatter_meets_goal ? "MET" : "missed");
  std::printf("  802.11b-only goodput: %.1f kbps (goal %s)\n",
              pick.single_11b_goodput_kbps,
              pick.single_meets_goal ? "met" : "MISSED");
  bench::note("paper: multiscatter selects 802.11n and meets the goal; the"
              " 802.11b tag cannot");
  return 0;
}
