// Table 4: average tag-data exchange times per packet under indoor
// (500 lux) and outdoor (1.04e5 lux) lighting, from the solar-harvesting
// model (0.01 F capacitor, 4.1 → 2.6 V window, 279.5 mW load).
#include <cstdio>

#include "analog/energy.h"
#include "analog/power.h"
#include "bench_util.h"
#include "experiments.h"
#include "sim/excitation.h"

int ms::bench::table4_energy(const CliOptions&) {
  using namespace ms;
  bench::title("Table 4", "average tag-data exchange times (solar harvesting)");
  const TagPowerModel power;
  const double load_w = power.total_peak_mw(20e6) / 1e3;
  const double indoor_lux = 500.0, outdoor_lux = 1.04e5;

  std::printf("  energy per cycle: %.1f mJ, active time per cycle: %.3f s\n",
              energy_per_cycle_j() * 1e3, active_time_s(load_w));
  std::printf("  harvest time: indoor %.1f s, outdoor %.2f s\n",
              harvest_time_s(indoor_lux), harvest_time_s(outdoor_lux));
  bench::rule();
  std::printf("%-10s %10s %16s %16s\n", "", "Exchange", "Indoor avg", "Outdoor avg");
  std::printf("%-10s %10s %16s %16s\n", "", "pkts/cycle", "exchange time",
              "exchange time");
  bench::rule();
  for (Protocol p : kAllProtocols) {
    const double rate = table4_excitation(p).pkt_rate_hz;
    const double pkts = packets_per_cycle(rate, load_w);
    const double t_in = avg_exchange_time_s(rate, load_w, indoor_lux);
    const double t_out = avg_exchange_time_s(rate, load_w, outdoor_lux);
    std::printf("%-10s %10.1f %14.2f s %14.1f ms\n",
                std::string(protocol_name(p)).c_str(), pkts, t_in, t_out * 1e3);
  }
  bench::rule();
  bench::note("paper: 360/360/12.6/3.6 pkts; 0.60 s / 0.60 s / 17.2 s / 60.1 s"
              " indoor; 2.2 / 2.2 / 61.9 / 21.7 ms outdoor");
  return 0;
}
