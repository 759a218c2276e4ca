#include "analog/wakeup.h"

#include <algorithm>

#include "common/error.h"

namespace ms {

double duty_cycled_power_w(const WakeupConfig& cfg, double active_power_w,
                           double pkt_rate_hz) {
  MS_CHECK(active_power_w >= 0.0);
  MS_CHECK(pkt_rate_hz >= 0.0);
  const double duty = std::min(
      1.0, pkt_rate_hz * (cfg.capture_window_s + cfg.wake_latency_s));
  return cfg.wakeup_power_w + duty * active_power_w;
}

double wakeup_saving_factor(const WakeupConfig& cfg, double active_power_w,
                            double pkt_rate_hz) {
  const double with = duty_cycled_power_w(cfg, active_power_w, pkt_rate_hz);
  MS_CHECK(with > 0.0);
  return active_power_w / with;
}

}  // namespace ms
