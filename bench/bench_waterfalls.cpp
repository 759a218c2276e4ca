// Waveform BER waterfalls: tag and productive BER vs SNR for every
// protocol's overlay chain at the paper's mode-1 parameters — the
// link-level characterization underlying the range figures.
#include <cstdio>

#include "bench_util.h"
#include "core/overlay/overlay.h"
#include "experiments.h"

using namespace ms;

int ms::bench::waterfalls(const CliOptions&) {
  bench::title("Waterfalls", "overlay BER vs SNR (waveform chain, mode 1)");
  Rng rng(13);
  const double snrs[] = {-6.0, -2.0, 2.0, 6.0, 10.0, 14.0};
  for (Protocol p : kAllProtocols) {
    auto codec = make_overlay_codec(p, mode_params(p, OverlayMode::Mode1));
    std::printf("\n  -- %s (kappa=%u, gamma=%u) --\n",
                std::string(protocol_name(p)).c_str(), codec->params().kappa,
                codec->params().gamma);
    std::printf("  %-10s %12s %12s\n", "SNR (dB)", "prod BER", "tag BER");
    for (double snr : snrs) {
      double pb = 0.0, tb = 0.0;
      const int kTrials = 8;
      for (int t = 0; t < kTrials; ++t) {
        const auto r = run_overlay_trial(*codec, 40, snr, rng);
        pb += r.productive_ber;
        tb += r.tag_ber;
      }
      std::printf("  %-10.0f %12.4f %12.4f\n", snr, pb / kTrials, tb / kTrials);
    }
  }
  bench::rule();
  bench::note("ZigBee's 32-chip spreading and 802.11n's subcarrier voting"
              " give them the steepest waterfalls; BLE's single-symbol FSK"
              " needs the most SNR — matching the Fig 13 range ordering"
              " once bandwidths are accounted for");
  return 0;
}
