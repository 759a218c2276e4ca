// Table 2: FPGA resources for multiprotocol identification — naive
// full-precision correlators vs the 1-bit quantized implementation.
#include <cstdio>

#include "bench_util.h"
#include "core/ident/resources.h"
#include "experiments.h"

int ms::bench::table2_resources(const CliOptions&) {
  using namespace ms;
  bench::title("Table 2", "FPGA implementations of 4-protocol identification");
  std::printf("%-22s %12s %8s %14s\n", "", "Multipliers", "Adders",
              "D-Flip-Flops");
  bench::rule();

  const CorrelatorResources one = naive_correlator(120);
  for (const char* proto : {"802.11n", "802.11b", "BLE", "ZigBee"})
    std::printf("%-22s %12zu %8zu %14zu\n", proto, one.multipliers, one.adders,
                one.dffs);

  const CorrelatorResources naive = naive_four_protocols(120);
  std::printf("%-22s %12zu %8zu %14zu\n", "Total (Naive Impl.)",
              naive.multipliers, naive.adders, naive.dffs);

  const CorrelatorResources nano = one_bit_four_protocols(120);
  std::printf("%-22s %12zu %8zu %14zu\n", "Nano FPGA Impl.", nano.multipliers,
              nano.adders, nano.dffs);
  bench::rule();
  std::printf("  AGLN250 capacity: %zu DFFs — naive fits: %s, 1-bit fits: %s\n",
              kAgln250Dffs, fits_agln250(naive) ? "yes" : "NO",
              fits_agln250(nano) ? "YES" : "no");
  bench::note("paper: 480 / 476 / 133,364 naive; 2,860 DFFs for the nano impl.");
  return 0;
}
