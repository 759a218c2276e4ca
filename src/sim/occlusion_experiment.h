// Original-channel occlusion studies (Fig 9a and Fig 15).
//
// Two-receiver baselines decode tag data against the packet heard on the
// ORIGINAL channel; walling off that channel wrecks them even when the
// backscattered channel is clean.  Multiscatter decodes everything from
// the single backscattered packet and does not care.
#pragma once

#include <array>

#include "core/baseline/baseline.h"
#include "core/overlay/throughput.h"

namespace ms {

struct OcclusionScenario {
  double tx_rx1_distance_m = 6.0;   ///< original channel (TX → RX1)
  double tag_rx_distance_m = 4.0;   ///< backscatter channel (tag → RX2/RX)
  BackscatterLink link;             ///< shared geometry for both systems
  /// Fraction of excitation airtime lost to source dropouts/brown-outs
  /// (see channel/impairments.h).  Every system needs the excitation on
  /// the air to carry tag data, so all Fig 15 rows derate by this much.
  double excitation_dropout_fraction = 0.0;
  /// Extra fade on the backscatter channel (an interferer or absorber
  /// near the tag), applied on top of the wall loss.  0 = the paper's
  /// clean deployment.
  double backscatter_fade_db = 0.0;
  /// Direct-link budget for the original channel.
  double original_snr_db(WallMaterial wall, Protocol p) const;
};

/// Fig 9a: baseline tag-data BER when the original channel passes through
/// nothing / wood / concrete.
std::array<double, 3> baseline_occlusion_ber(const BaselineConfig& baseline,
                                             const OcclusionScenario& sc);

struct Fig15Row {
  const char* system;
  double tag_kbps;
};

/// Fig 15: tag-data throughput with a drywall occluding the original
/// channel — multiscatter (BLE and 802.11b carriers) vs FreeRider and
/// Hitchhike.
std::array<Fig15Row, 4> occlusion_throughput(const OcclusionScenario& sc);

}  // namespace ms
