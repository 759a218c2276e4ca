#include "channel/link.h"

#include <algorithm>
#include <cmath>

#include "channel/ber.h"
#include "common/units.h"

namespace ms {

double BackscatterLink::tag_incident_dbm() const {
  return tx_power_dbm + tx_gain_dbi + tag_gain_dbi -
         forward.loss_db(tx_tag_distance_m);
}

double BackscatterLink::rx_power_dbm(double tag_rx_distance_m) const {
  return tag_incident_dbm() - backscatter_loss_db + tag_gain_dbi +
         rx_gain_dbi - backward.loss_db(tag_rx_distance_m) -
         wall_loss_db(tag_rx_wall);
}

double BackscatterLink::rssi_dbm(double tag_rx_distance_m) const {
  return rx_power_dbm(tag_rx_distance_m);
}

double BackscatterLink::snr_db(double tag_rx_distance_m, Protocol p) const {
  const double noise =
      thermal_noise_dbm(protocol_info(p).bandwidth_hz) + rx_noise_figure_db;
  return rx_power_dbm(tag_rx_distance_m) - noise;
}

double rx_sensitivity_dbm(Protocol p) {
  switch (p) {
    case Protocol::WifiB:
      return -94.0;  // 1 Mbps DSSS
    case Protocol::WifiN:
      return -93.0;  // MCS0
    case Protocol::Zigbee:
      return -92.0;  // CC2650-class
    case Protocol::Ble:
      return -91.0;  // 1 Mbps GFSK
  }
  return -90.0;
}

namespace {
/// Repetition + majority voting over gamma symbols improves the effective
/// per-decision SNR by the spreading factor.
double spread_gain_db(unsigned gamma) {
  return linear_to_db(std::max(1u, gamma));
}
}  // namespace

double backscatter_tag_ber(Protocol p, double snr_db, unsigned gamma) {
  switch (p) {
    case Protocol::WifiB:
      // BPSK tag flips on Barker-despread symbols (10.4 dB processing
      // gain), detected differentially against the reference symbol.
      return ber_dbpsk(snr_db + linear_to_db(11.0) + spread_gain_db(gamma));
    case Protocol::WifiN:
      // Per-OFDM-symbol XOR with majority voting over the middle half of
      // the 48 data subcarriers (§2.4.2); model as coherent BPSK with the
      // gamma spreading gain, less 1 dB for the discarded edge carriers.
      return ber_bpsk(snr_db + spread_gain_db(gamma) - 1.0);
    case Protocol::Ble:
      // Δf FSK tag bit on top of GFSK, non-coherent detection.
      return ber_fsk_noncoherent(snr_db + spread_gain_db(gamma));
    case Protocol::Zigbee: {
      // Phase comparison of 32-chip PN correlations (15 dB gain), but the
      // first symbol of each gamma-group is garbled by the broken
      // half-chip offset (§2.4.2): gamma == 1 leaves no clean symbol.
      if (gamma < 2) return 0.25;  // offset damage dominates
      return ber_dbpsk(snr_db + linear_to_db(32.0) +
                       spread_gain_db(gamma - 1));
    }
  }
  return 0.5;
}

double productive_ber(Protocol p, double snr_db) {
  switch (p) {
    case Protocol::WifiB:
      return ber_dbpsk(snr_db + linear_to_db(11.0));
    case Protocol::WifiN:
      // MCS0: rate-1/2 K=7 BCC with soft headroom — ~6 dB coding gain in
      // the waterfall region.
      return ber_bpsk(snr_db + 6.0);
    case Protocol::Ble:
      return ber_fsk_noncoherent(snr_db);
    case Protocol::Zigbee:
      return ber_zigbee(snr_db);
  }
  return 0.5;
}

}  // namespace ms
