#include "analog/wakeup.h"

#include <gtest/gtest.h>

#include "analog/power.h"

namespace ms {
namespace {

TEST(Wakeup, DutyCycledPowerFarBelowAlwaysOn) {
  const WakeupConfig cfg;
  const TagPowerModel m;
  const double active_w = m.total_peak_mw(2.5e6) / 1e3;  // 52 mW
  // 70 BLE advertising packets/s: active 110 µs each → duty 0.77%.
  const double avg = duty_cycled_power_w(cfg, active_w, 70.0);
  EXPECT_LT(avg, 0.02 * active_w + cfg.wakeup_power_w * 2);
  EXPECT_GT(wakeup_saving_factor(cfg, active_w, 70.0), 50.0);
}

TEST(Wakeup, SavingShrinksWithPacketRate) {
  const WakeupConfig cfg;
  EXPECT_GT(wakeup_saving_factor(cfg, 0.05, 20.0),
            wakeup_saving_factor(cfg, 0.05, 2000.0));
}

TEST(Wakeup, DutyClampedAtSaturation) {
  const WakeupConfig cfg;
  const double active_w = 0.05;
  // Absurd packet rate: duty clamps at 1 → avg = wakeup + active.
  EXPECT_NEAR(duty_cycled_power_w(cfg, active_w, 1e9),
              cfg.wakeup_power_w + active_w, 1e-9);
}

TEST(Wakeup, AlwaysOnFloorIsTheWakeupReceiver) {
  const WakeupConfig cfg;
  EXPECT_NEAR(duty_cycled_power_w(cfg, 0.05, 0.0), cfg.wakeup_power_w, 1e-12);
}

}  // namespace
}  // namespace ms
