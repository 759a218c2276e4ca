// Wake-up receiver model (§2.3.2 note 1: "further power saving can be
// made by introducing an additional wake-up module, like [30]").
//
// Reference [30] is a 236 nW, −56.5 dBm-sensitivity BLE wake-up
// receiver.  With one, the tag keeps the ADC and correlators powered
// off until the wake-up module fires, paying full identification power
// only for the capture window around each packet.
#pragma once

namespace ms {

struct WakeupConfig {
  double wakeup_power_w = 236e-9;     ///< always-on wake-up receiver
  double sensitivity_dbm = -56.5;     ///< wake-up trigger level
  double capture_window_s = 100e-6;   ///< active window per packet
  double wake_latency_s = 10e-6;      ///< trigger → ADC ready
};

/// Average power (W) of a duty-cycled identification front end:
/// wake-up module always on, ADC + correlator (`active_power_w`) on for
/// (latency + capture window) per packet at `pkt_rate_hz`.
double duty_cycled_power_w(const WakeupConfig& cfg, double active_power_w,
                           double pkt_rate_hz);

/// Power saving factor vs leaving the front end always on.
double wakeup_saving_factor(const WakeupConfig& cfg, double active_power_w,
                            double pkt_rate_hz);

}  // namespace ms
