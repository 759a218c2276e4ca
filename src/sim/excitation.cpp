#include "sim/excitation.h"

#include "common/error.h"

namespace ms {

ExcitationSpec table4_excitation(Protocol p) {
  ExcitationSpec e;
  e.protocol = p;
  switch (p) {
    case Protocol::WifiN:
      e.pkt_rate_hz = 2000.0;
      e.payload_bytes = 300;
      break;
    case Protocol::WifiB:
      e.pkt_rate_hz = 2000.0;
      e.payload_bytes = 37;  // short frames to fit 2000 pkt/s at 1 Mbps
      break;
    case Protocol::Ble:
      e.pkt_rate_hz = 70.0;  // max legacy advertising rate
      e.payload_bytes = 37;
      break;
    case Protocol::Zigbee:
      e.pkt_rate_hz = 20.0;  // CC2530 maximum
      e.payload_bytes = 125;
      break;
  }
  return e;
}

ExcitationSpec fig12_excitation(Protocol p) {
  // Duties chosen to match the paper's operating points (see
  // EXPERIMENTS.md): BLE and 802.11b carriers near-saturated, 802.11n at
  // a light duty (its reference symbols carry 26 bits each), ZigBee
  // saturating the CC2530 with max-length frames.
  ExcitationSpec e;
  e.protocol = p;
  switch (p) {
    case Protocol::WifiB:
      e.pkt_rate_hz = 100.0;   // 1000 B at 1 Mbps + preamble → duty ≈ 0.81
      e.payload_bytes = 1000;
      break;
    case Protocol::WifiN:
      e.pkt_rate_hz = 160.0;   // 300 B at MCS0 → duty ≈ 0.061
      e.payload_bytes = 300;
      break;
    case Protocol::Ble:
      e.pkt_rate_hz = 3300.0;  // saturated advertising bursts → duty ≈ 1
      e.payload_bytes = 37;
      break;
    case Protocol::Zigbee:
      // Saturating the 802.15.4 channel with back-to-back max-length
      // frames (the paper's 26.2 kbps exceeds what its stated 20 pkt/s
      // rate can deliver after κ-spreading, so its throughput runs used
      // a denser stream too).
      e.pkt_rate_hz = 82.0;    // duty ≈ 0.34
      e.payload_bytes = 125;
      break;
  }
  return e;
}

ExcitationSpec fig16_wifi_n() {
  ExcitationSpec e;
  e.protocol = Protocol::WifiN;
  e.pkt_rate_hz = 2000.0;
  e.payload_bytes = 300;
  return e;
}

ExcitationSpec fig16_ble() {
  ExcitationSpec e;
  e.protocol = Protocol::Ble;
  e.pkt_rate_hz = 34.0;
  e.payload_bytes = 37;
  return e;
}

ExcitationSpec fig16_zigbee() {
  ExcitationSpec e;
  e.protocol = Protocol::Zigbee;
  e.pkt_rate_hz = 20.0;
  e.payload_bytes = 125;
  return e;
}

}  // namespace ms
