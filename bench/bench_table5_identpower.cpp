// Table 5: hardware resources and simulated power of the
// protocol-identification pipeline across (sampling rate, quantization)
// settings.
#include <cstdio>

#include "bench_util.h"
#include "core/ident/resources.h"
#include "experiments.h"

int ms::bench::table5_identpower(const CliOptions&) {
  using namespace ms;
  bench::title("Table 5", "identification power/LUTs vs rate and quantization");
  std::printf("%-28s %12s %8s\n", "Setup", "Power(mW)", "LUTs");
  bench::rule();
  struct Row {
    const char* name;
    double rate;
    bool quant;
  };
  const Row rows[] = {
      {"20MS/s, no ±1 quant.", 20e6, false},
      {"20MS/s, ±1 quant.", 20e6, true},
      {"10MS/s, ±1 quant.", 10e6, true},
      {"2.5MS/s, ±1 quant.", 2.5e6, true},
      {"1MS/s, ±1 quant.", 1e6, true},
  };
  const double ref = ident_power(20e6, false).power_mw;
  for (const Row& r : rows) {
    const IdentPowerEstimate e = ident_power(r.rate, r.quant);
    std::printf("%-28s %7.2f (%4.2f%%) %8zu\n", r.name, e.power_mw,
                100.0 * e.power_mw / ref, e.luts);
  }
  bench::rule();
  bench::note("paper anchors: 564 mW/34,751 LUTs; 12 mW/1,574; 2 mW/1,070");
  std::printf("  power saving of the deployed 2.5 MS/s ±1 setup: %.0f×\n",
              ref / ident_power(2.5e6, true).power_mw);
  return 0;
}
