// Backscatter link budget.
//
// A backscatter link has two cascaded segments: carrier source → tag and
// tag → receiver.  The tag re-radiates a fraction of the incident power
// (backscatter/modulation loss), so the received power is
//   Ptx + Gtx + Gtag − PL(d1) − Lbs + Gtag + Grx − PL(d2) − walls.
// This module converts geometry into received power, RSSI, and SNR — the
// inputs to every range/throughput experiment (Figs 13–15).
#pragma once

#include "channel/pathloss.h"
#include "phy/protocol.h"

namespace ms {

struct BackscatterLink {
  double tx_power_dbm = 15.0;   ///< commodity NIC
  double tx_gain_dbi = 3.0;     ///< omni antennas throughout (§2.2.1)
  double rx_gain_dbi = 3.0;
  double tag_gain_dbi = 2.0;
  double backscatter_loss_db = 11.5;  ///< reflection + modulation loss
  double rx_noise_figure_db = 6.0;
  double tx_tag_distance_m = 0.8;  ///< paper's default deployment
  PathLossModel forward = los_model();   ///< source → tag
  PathLossModel backward = los_model();  ///< tag → receiver
  WallMaterial tag_rx_wall = WallMaterial::None;  ///< occlusion on tag→RX

  /// Power incident at the tag antenna (dBm).
  double tag_incident_dbm() const;

  /// Backscattered power at the receiver (dBm) with the tag
  /// `tag_rx_distance_m` away from the receiver.
  double rx_power_dbm(double tag_rx_distance_m) const;

  /// RSSI the commodity radio reports (== rx power here).
  double rssi_dbm(double tag_rx_distance_m) const;

  /// SNR (dB) of the backscattered signal in the protocol's bandwidth.
  double snr_db(double tag_rx_distance_m, Protocol p) const;
};

/// Receive sensitivity of the commodity radio used for each protocol
/// (typical datasheet values: 1 Mbps DSSS NICs are the most sensitive,
/// 1 Mbps BLE the least).  Below this RSSI the radio detects nothing —
/// what bounds the maximal backscatter ranges of Figs 13/14.
double rx_sensitivity_dbm(Protocol p);

/// Tag-data BER of the backscattered link for protocol p at the given
/// post-despreading SNR, with tag spreading factor gamma (repetition +
/// majority voting).
double backscatter_tag_ber(Protocol p, double snr_db, unsigned gamma);

/// Productive-data BER (the reference symbols) for protocol p at SNR.
double productive_ber(Protocol p, double snr_db);

}  // namespace ms
