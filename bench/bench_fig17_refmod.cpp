// Fig 17: tag-data BER across reference-symbol modulation schemes,
// measured at the waveform level through the full overlay chain.
//   (a) 802.11b: DSSS-BPSK, DSSS-DQPSK, CCK (5.5 Mbps)
//   (b) 802.11n: OFDM-BPSK, OFDM-QPSK, OFDM-16QAM
#include <cstdio>

#include "bench_util.h"
#include "core/overlay/wifi_b_overlay.h"
#include "core/overlay/wifi_n_overlay.h"
#include "experiments.h"

using namespace ms;

namespace {

double measure_tag_ber(const OverlayCodec& codec, double snr_db, int trials,
                       Rng& rng) {
  double ber = 0.0;
  for (int t = 0; t < trials; ++t)
    ber += run_overlay_trial(codec, 40, snr_db, rng).tag_ber;
  return ber / trials;
}

}  // namespace

int ms::bench::fig17_refmod(const CliOptions&) {
  Rng rng(5);
  const int kTrials = 15;
  // The despreading/voting gains make the overlay error-free at positive
  // SNR; sweep down into the waterfall to expose the per-scheme BERs.
  const double snrs[] = {-12.0, -8.0, -4.0, 0.0};

  bench::title("Fig 17a", "802.11b reference-symbol modulations (tag BER %)");
  std::printf("%-14s", "ref symbols");
  for (double s : snrs) std::printf(" %8.0f dB", s);
  std::printf("\n");
  bench::rule();
  const struct {
    const char* name;
    WifiBRate rate;
  } b_rows[] = {{"DSSS-BPSK", WifiBRate::Dbpsk1M},
                {"DSSS-DQPSK", WifiBRate::Dqpsk2M},
                {"CCK-5.5M", WifiBRate::Cck5_5M}};
  for (const auto& row : b_rows) {
    WifiBConfig phy_cfg;
    phy_cfg.rate = row.rate;
    const WifiBOverlay codec(OverlayParams{8, 4}, phy_cfg);
    std::printf("%-14s", row.name);
    for (double s : snrs)
      std::printf(" %10.3f", 100.0 * measure_tag_ber(codec, s, kTrials, rng));
    std::printf("\n");
  }
  bench::note("paper: all below 0.6% at the testbed operating point and"
              " stable across schemes");

  bench::title("Fig 17b", "802.11n reference-symbol modulations (tag BER %)");
  std::printf("%-14s", "ref symbols");
  for (double s : snrs) std::printf(" %8.0f dB", s);
  std::printf("\n");
  bench::rule();
  const struct {
    const char* name;
    Modulation mod;
  } n_rows[] = {{"OFDM-BPSK", Modulation::Bpsk},
                {"OFDM-QPSK", Modulation::Qpsk},
                {"OFDM-16QAM", Modulation::Qam16}};
  for (const auto& row : n_rows) {
    WifiNConfig phy_cfg;
    phy_cfg.modulation = row.mod;
    const WifiNOverlay codec(OverlayParams{4, 2}, phy_cfg);
    std::printf("%-14s", row.name);
    for (double s : snrs)
      std::printf(" %10.3f", 100.0 * measure_tag_ber(codec, s, kTrials, rng));
    std::printf("\n");
  }
  bench::note("paper: stable, low BERs for all three OFDM mappings — the"
              " phase-flip tag modulation is scheme-agnostic");
  return 0;
}
