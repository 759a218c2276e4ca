// Fig 12: productive-vs-tag throughput trade-offs under modes 1/2/3 for
// all four excitation protocols, averaged over random tag locations
// (spatial diversity), as in the paper's 100-location experiment.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "experiments.h"
#include "sim/excitation.h"

using namespace ms;

int ms::bench::fig12_tradeoffs(const CliOptions&) {
  bench::title("Fig 12", "throughput trade-offs across modes (kbps)");
  const BackscatterLink link;
  Rng rng(7);
  const int kLocations = 100;

  std::printf("%-10s %-7s %6s %14s %10s %12s\n", "protocol", "mode", "kappa",
              "productive", "tag", "aggregate");
  bench::rule();
  for (Protocol p : kAllProtocols) {
    const ExcitationSpec exc = fig12_excitation(p);
    for (OverlayMode mode :
         {OverlayMode::Mode1, OverlayMode::Mode2, OverlayMode::Mode3}) {
      const OverlayParams params = mode_params(p, mode, exc.payload_symbols());
      Throughput acc;
      for (int loc = 0; loc < kLocations; ++loc) {
        const double d = rng.uniform(2.0, 10.0);  // tag moved around the room
        const Throughput t = overlay_throughput_at(exc, params, link, d);
        acc.productive_bps += t.productive_bps;
        acc.tag_bps += t.tag_bps;
      }
      acc.productive_bps /= kLocations;
      acc.tag_bps /= kLocations;
      std::printf("%-10s mode %d %6u %12.1f k %8.1f k %10.1f k\n",
                  std::string(protocol_name(p)).c_str(),
                  static_cast<int>(mode) + 1, params.kappa,
                  acc.productive_bps / 1e3, acc.tag_bps / 1e3,
                  acc.aggregate_bps() / 1e3);
    }
    bench::rule();
  }
  bench::note("paper mode-1 aggregates: BLE 278.4 (141.6+136.8), 802.11b"
              " 219.8, 802.11n 101.2, ZigBee 26.2 kbps;");
  bench::note("mode 2 triples the tag share; mode 3 carries ~1 productive"
              " bit per packet");
  return 0;
}
