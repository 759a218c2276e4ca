// Excitation-diversity studies (Fig 18).
//
// (a) Adaptation to discontinuous excitations: 802.11b and 802.11n
//     carriers alternate at 50% duty; the multiscatter tag rides whichever
//     is present while a single-protocol tag idles half the time.
// (b) Intelligent carrier pick: abundant 802.11n and spotty 802.11b; the
//     multiscatter tag selects the carrier with the best expected tag
//     goodput and meets a smart-bracelet goodput goal the 802.11b-only
//     tag cannot.
#pragma once

#include <vector>

#include "core/tag/controller.h"
#include "sim/excitation.h"

namespace ms {

struct DiversitySlot {
  double t_s = 0.0;
  double multiscatter_kbps = 0.0;
  double single_protocol_kbps = 0.0;
};

struct DiversityResult {
  std::vector<DiversitySlot> timeline;
  double multiscatter_busy_fraction = 0.0;
  double single_busy_fraction = 0.0;
  double multiscatter_mean_kbps = 0.0;
  double single_mean_kbps = 0.0;
};

/// Fig 18a: alternating 802.11b / 802.11n excitation periods.  The two
/// tag variants (multiscatter, 802.11b-only) each draw from their own
/// counter-based stream, Rng(seed).fork(variant, 0); slots within a
/// variant are sequential because the controller carries state across
/// them.
DiversityResult run_discontinuous_excitations(const BackscatterLink& link,
                                              double distance_m,
                                              double duration_s = 60.0,
                                              double slot_s = 0.5,
                                              std::uint64_t seed = 7);

struct CarrierPickResult {
  Protocol picked = Protocol::WifiB;
  double multiscatter_goodput_kbps = 0.0;
  double single_11b_goodput_kbps = 0.0;
  double goal_kbps = 6.3;
  bool multiscatter_meets_goal = false;
  bool single_meets_goal = false;
};

/// Fig 18b: abundant 802.11n vs spotty 802.11b; goodput goal 6.3 kbps.
CarrierPickResult run_carrier_pick(const BackscatterLink& link,
                                   double distance_m);

}  // namespace ms
