// Table 1: the qualitative comparison of backscatter systems — which
// designs support excitation diversity, productive carriers, and
// single-commodity-receiver decoding.  For the systems this repository
// implements (multiscatter, Hitchhike, FreeRider) the ticks are backed
// by executable models; the rest are the paper's classification.
#include <cstdio>

#include "bench_util.h"
#include "experiments.h"

namespace {
struct Row {
  const char* system;
  bool diversity, productive, single_rx;
  const char* backing;
};
}  // namespace

int ms::bench::table1_comparison(const CliOptions&) {
  using namespace ms;
  bench::title("Table 1", "comparison of backscatter systems");
  const Row rows[] = {
      {"WiFi backscatter", false, true, false, "paper classification"},
      {"FS backscatter", false, true, false, "paper classification"},
      {"Interscatter", false, false, true, "paper classification"},
      {"Passive WiFi", false, false, true, "paper classification"},
      {"LoRa backscatter", false, false, true, "paper classification"},
      {"Hitchhike", false, true, false, "core/baseline (2-RX decode modeled)"},
      {"FreeRider", false, true, false, "core/baseline (2-RX decode modeled)"},
      {"X-Tandem", false, true, false, "paper classification"},
      {"PLoRa", false, true, false, "paper classification"},
      {"Multiscatter", true, true, true, "this library, end to end"},
  };
  std::printf("%-18s %10s %11s %10s   %s\n", "", "diversity", "productive",
              "single RX", "backing");
  bench::rule();
  for (const Row& r : rows)
    std::printf("%-18s %10s %11s %10s   %s\n", r.system,
                r.diversity ? "yes" : "-", r.productive ? "yes" : "-",
                r.single_rx ? "yes" : "-", r.backing);
  bench::rule();
  bench::note("multiscatter is the only row with all three — the paper's"
              " central claim, demonstrated by bench_fig18 (diversity),"
              " bench_fig12 (productive), and bench_fig15 (single RX)");
  return 0;
}
