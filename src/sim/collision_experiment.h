// Collided-excitation studies (Fig 16).
//
// Time-domain collisions (802.11n + BLE on overlapping airtime): the tag
// has no channel filter, so overlapping packets collide at the tag and
// the lighter flow loses most of its throughput while the heavy WiFi flow
// barely notices.  Frequency-domain collisions (802.11n + ZigBee on
// different channels but interleaved in time): ordered template matching
// still separates the packets and neither flow suffers much.
#pragma once

#include <span>
#include <vector>

#include "core/overlay/throughput.h"
#include "sim/excitation.h"

namespace ms {

struct CollisionSetup {
  ExcitationSpec a;  ///< the heavy flow (802.11n in the paper)
  ExcitationSpec b;  ///< the light flow (BLE or ZigBee)
  bool time_overlap = true;  ///< false = only frequency-domain collision
  /// Fraction of an overlapped packet's decode chances lost (capture
  /// effect leaves partial survivals; calibrated to Fig 16b's 278 → 92).
  double collision_vulnerability = 0.8;
  /// The paper's future-work fix: a passive channel filter on the tag
  /// that attenuates the off-channel interferer by this many dB before
  /// it can collide (0 = no filter, the paper's prototype).
  double tag_filter_rejection_db = 0.0;
  /// Fraction of excitation airtime lost to source dropouts (see
  /// channel/impairments.h); derates both flows' solo throughput before
  /// the collision accounting.
  double excitation_dropout_fraction = 0.0;
};

struct CollisionResult {
  Throughput a_solo, a_collided;
  Throughput b_solo, b_collided;
  double a_loss_fraction = 0.0;
  double b_loss_fraction = 0.0;
};

/// Fig 16a/b: 802.11n (2000 pkt/s, 300 B) + BLE (34 pkt/s) collided in time.
CollisionSetup fig16_time_collision();

/// Fig 16c/d: 802.11n + ZigBee (20 pkt/s, 200 B) on adjacent frequencies,
/// not overlapping in time.
CollisionSetup fig16_frequency_collision();

/// Airtime-overlap loss: the fraction of a flow's decode chances lost
/// when it shares air with another flow of duty `other_duty`, with
/// `vulnerability` the fraction of an overlapped packet's chances an
/// overlap destroys (capture leaves partial survivals, so
/// vulnerability < 1).  Clamped to 1: a saturated interferer wipes out
/// at most the whole flow.
double airtime_overlap_loss(double other_duty, double vulnerability);

CollisionResult run_collision(const CollisionSetup& setup,
                              const BackscatterLink& link, double distance_m);

/// run_collision at each distance, results in input order.
std::vector<CollisionResult> run_collision_sweep(
    const CollisionSetup& setup, const BackscatterLink& link,
    std::span<const double> distances);

}  // namespace ms
