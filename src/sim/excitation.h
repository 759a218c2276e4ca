// Excitation presets matching the paper's testbed (§3/§4).
//
// Packet rates and sizes come from the paper where stated (2000 pkt/s for
// WiFi, 70 pkt/s legacy advertising for BLE, 20 pkt/s for the CC2530,
// 300 B 11n / 37 B BLE / 200 B ZigBee in the collision study).  The
// throughput experiments (Fig 12) additionally need the airtime duty of
// the overlay carrier; where the paper saturates the channel we document
// the duty explicitly (see EXPERIMENTS.md "calibration").
#pragma once

#include "core/overlay/throughput.h"

namespace ms {

/// Excitation rates used in the power/energy experiments (Table 4).
ExcitationSpec table4_excitation(Protocol p);

/// Excitation used for the throughput trade-off study (Fig 12): carriers
/// driven at the duty the paper's testbed achieved.
ExcitationSpec fig12_excitation(Protocol p);

/// Collision-study excitations (Fig 16): 2.417 GHz 802.11n at 2000 pkt/s
/// × 300 B, BLE at 34 pkt/s × 37 B, ZigBee at 20 pkt/s × 200 B.
ExcitationSpec fig16_wifi_n();
ExcitationSpec fig16_ble();
ExcitationSpec fig16_zigbee();

}  // namespace ms
