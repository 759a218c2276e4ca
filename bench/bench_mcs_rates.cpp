// Substrate validation: the full 802.11n MCS 0-7 chain (64-QAM,
// punctured BCC) — frame BER vs SNR, confirming the usual rate ladder.
#include <cstdio>

#include "bench_util.h"
#include "channel/awgn.h"
#include "common/rng.h"
#include "experiments.h"
#include "phy/ofdm/mcs.h"
#include "phy/ofdm/wifi_n.h"

using namespace ms;

int ms::bench::mcs_rates(const CliOptions&) {
  bench::title("802.11n MCS ladder", "payload BER vs SNR per MCS");
  Rng rng(3);
  const double snrs[] = {6.0, 12.0, 18.0, 24.0, 30.0};
  std::printf("%-4s %-8s %-6s %-10s", "MCS", "mod", "rate", "Mbps");
  for (double s : snrs) std::printf(" %8.0f dB", s);
  std::printf("\n");
  bench::rule();
  const char* mods[] = {"BPSK", "QPSK", "16QAM", "64QAM"};
  for (unsigned mcs = 0; mcs < kMcsCount; ++mcs) {
    const McsInfo& info = mcs_info(mcs);
    const WifiNPhy phy(WifiNConfig::from_mcs(mcs));
    std::printf("%-4u %-8s %u/%u    %-10.1f", mcs,
                mods[static_cast<int>(info.modulation)], info.coding_num,
                info.coding_den, info.data_rate_bps / 1e6);
    for (double snr : snrs) {
      double ber = 0.0;
      for (int t = 0; t < 4; ++t) {
        const Bytes payload = rng.bytes(100);
        const Iq noisy = add_awgn(phy.modulate_frame(payload), snr, rng);
        const auto rx = phy.demodulate_frame(noisy, payload.size());
        ber += bit_error_rate(bytes_to_bits_lsb(payload),
                              bytes_to_bits_lsb(rx.payload));
      }
      std::printf(" %11.4f", ber / 4.0);
    }
    std::printf("\n");
  }
  bench::rule();
  bench::note("the usual ladder: every step up needs ~3-5 dB more SNR;"
              " the paper rides MCS0");
  return 0;
}
