// Table 3: peak power breakdown of the COTS tag prototype at 20 Msps.
#include <cstdio>

#include "analog/power.h"
#include "bench_util.h"
#include "experiments.h"

int ms::bench::table3_power(const CliOptions&) {
  using namespace ms;
  bench::title("Table 3", "power consumption of the COTS prototype (20 Msps)");
  const TagPowerModel m;
  std::printf("%-14s %-22s %10s\n", "Logical part", "Device", "Power(mW)");
  bench::rule();
  std::printf("%-14s %-22s %10.1f\n", "Pkt det.", "Pkt det. (FPGA)",
              m.fpga_pkt_det_mw);
  std::printf("%-14s %-22s %10.1f\n", "", "ADC (20 Msps)", m.adc_mw(20e6));
  std::printf("%-14s %-22s %10.1f\n", "Modulation", "FPGA (Modulation)",
              m.fpga_modulation_mw);
  std::printf("%-14s %-22s %10.1f\n", "", "RF-switch", m.rf_switch_mw);
  std::printf("%-14s %-22s %10.1f\n", "Clock", "Oscillator (20 MHz)",
              m.oscillator_mw);
  bench::rule();
  std::printf("%-14s %-22s %10.1f\n", "Total", "", m.total_peak_mw(20e6));
  bench::note("paper: 2.5 / 260 / 1.0 / 0.1 / 15.9 → 279.5 mW total");
  std::printf("  at the 2.5 Msps operating point: %.1f mW\n",
              m.total_peak_mw(2.5e6));
  std::printf("  IC (Libero) baseband estimate: %.2f mW\n",
              ic_baseband_power_mw());
  return 0;
}
