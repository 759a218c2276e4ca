#include "sim/collision_experiment.h"

#include <algorithm>
#include <cmath>

namespace ms {

CollisionSetup fig16_time_collision() {
  CollisionSetup s;
  s.a = fig16_wifi_n();
  s.b = fig16_ble();
  s.time_overlap = true;
  return s;
}

CollisionSetup fig16_frequency_collision() {
  CollisionSetup s;
  s.a = fig16_wifi_n();
  s.b = fig16_zigbee();
  s.time_overlap = false;
  return s;
}

double airtime_overlap_loss(double other_duty, double vulnerability) {
  return std::min(1.0, vulnerability * other_duty);
}

CollisionResult run_collision(const CollisionSetup& setup,
                              const BackscatterLink& link, double distance_m) {
  CollisionResult r;
  const OverlayParams pa = mode_params(setup.a.protocol, OverlayMode::Mode1);
  const OverlayParams pb = mode_params(setup.b.protocol, OverlayMode::Mode1);
  // Throughputs are reported at the Fig 12 operating points (the paper's
  // "278 kbps BLE" is its Fig 12 rate); the collision probabilities come
  // from the actual Fig 16 packet schedules in `setup`.
  r.a_solo = overlay_throughput_at(fig12_excitation(setup.a.protocol), pa,
                                   link, distance_m);
  r.b_solo = overlay_throughput_at(fig12_excitation(setup.b.protocol), pb,
                                   link, distance_m);

  // Excitation dropouts steal airtime from both flows before any
  // collision accounting (no excitation on the air, no tag data).
  if (setup.excitation_dropout_fraction > 0.0) {
    const double keep =
        std::max(0.0, 1.0 - setup.excitation_dropout_fraction);
    for (Throughput* t : {&r.a_solo, &r.b_solo}) {
      t->productive_bps *= keep;
      t->tag_bps *= keep;
    }
  }

  if (!setup.time_overlap) {
    // Packets interleave in time; ordered matching identifies each one,
    // so neither flow loses meaningful throughput (Fig 16d).
    r.a_collided = r.a_solo;
    r.b_collided = r.b_solo;
    return r;
  }

  // A packet of one flow is vulnerable for its own airtime within the
  // other flow's duty cycle; the capture effect lets part of the
  // overlapped packets survive (collision_vulnerability < 1).  A tag
  // channel filter attenuates the interferer before it collides,
  // shrinking the vulnerable power fraction proportionally.
  const double filter_gain =
      std::pow(10.0, -setup.tag_filter_rejection_db / 10.0);
  const double vulnerability =
      std::min(1.0, setup.collision_vulnerability * filter_gain);
  const double duty_a = setup.a.airtime_duty();
  const double duty_b = setup.b.airtime_duty();
  r.b_loss_fraction = airtime_overlap_loss(duty_a, vulnerability);
  r.a_loss_fraction = airtime_overlap_loss(duty_b, vulnerability);

  auto scale = [](const Throughput& t, double keep) {
    Throughput s = t;
    s.productive_bps *= keep;
    s.tag_bps *= keep;
    return s;
  };
  r.a_collided = scale(r.a_solo, 1.0 - r.a_loss_fraction);
  r.b_collided = scale(r.b_solo, 1.0 - r.b_loss_fraction);
  return r;
}

std::vector<CollisionResult> run_collision_sweep(
    const CollisionSetup& setup, const BackscatterLink& link,
    std::span<const double> distances) {
  std::vector<CollisionResult> out;
  out.reserve(distances.size());
  for (double d : distances) out.push_back(run_collision(setup, link, d));
  return out;
}

}  // namespace ms
