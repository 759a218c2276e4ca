// Ablation (§2.3.2 note 1): a 236 nW wake-up receiver duty-cycles the
// identification front end.  Average power vs excitation packet rate,
// with and without the wake-up module.
#include <cstdio>

#include "analog/power.h"
#include "analog/wakeup.h"
#include "bench_util.h"
#include "experiments.h"

using namespace ms;

int ms::bench::ablation_wakeup(const CliOptions&) {
  bench::title("Ablation: wake-up module",
               "average identification power vs packet rate");
  const TagPowerModel power;
  const WakeupConfig wk;
  const double active_w = power.total_peak_mw(2.5e6) / 1e3;  // 52 mW deployed

  std::printf("%-14s %16s %18s %10s\n", "pkt rate", "always-on (mW)",
              "with wake-up (mW)", "saving");
  bench::rule();
  for (double rate : {20.0, 70.0, 500.0, 2000.0, 8000.0}) {
    const double avg = duty_cycled_power_w(wk, active_w, rate);
    std::printf("%-14.0f %16.1f %18.3f %9.0fx\n", rate, active_w * 1e3,
                avg * 1e3, wakeup_saving_factor(wk, active_w, rate));
  }
  bench::rule();
  std::printf("  wake-up receiver floor: %.3f uW, sensitivity %.1f dBm\n",
              wk.wakeup_power_w * 1e6, wk.sensitivity_dbm);
  bench::note("sparse excitations (BLE advertising, ZigBee) gain 100x+;"
              " dense 802.11n traffic amortizes the always-on cost anyway");
  return 0;
}
