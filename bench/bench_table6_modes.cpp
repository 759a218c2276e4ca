// Table 6: the κ presets of the three operating modes for each protocol
// (γ values fixed per protocol), plus the per-sequence bit accounting
// they imply.
#include <cstdio>

#include "bench_util.h"
#include "core/overlay/overlay.h"
#include "experiments.h"

int ms::bench::table6_modes(const CliOptions&) {
  using namespace ms;
  bench::title("Table 6", "mode presets: kappa per protocol and mode");
  std::printf("%-18s %8s %8s %8s %10s\n", "", "Mode 1 k", "Mode 2 k",
              "Mode 3 k", "tag b/seq");
  bench::rule();
  for (Protocol p : kAllProtocols) {
    const OverlayParams m1 = mode_params(p, OverlayMode::Mode1);
    const OverlayParams m2 = mode_params(p, OverlayMode::Mode2);
    const OverlayParams m3 = mode_params(p, OverlayMode::Mode3, 256);
    std::printf("%-10s gamma=%u %8u %8u %8u %10zu\n",
                std::string(protocol_name(p)).c_str(), m1.gamma, m1.kappa,
                m2.kappa, m3.kappa, m1.tag_bits_per_sequence());
  }
  bench::rule();
  bench::note("paper: gamma = 4/2/4/2; kappa = 8/4/8/4 (mode 1), 16/8/16/8"
              " (mode 2), payload-length (mode 3)");
  return 0;
}
