// Distance sweeps for the LoS / NLoS range studies (Figs 13 and 14).
#pragma once

#include <vector>

#include "core/overlay/throughput.h"
#include "sim/excitation.h"

namespace ms {

struct RangePoint {
  double distance_m = 0.0;
  double rssi_dbm = 0.0;
  double productive_ber = 0.0;
  double tag_ber = 0.0;
  double aggregate_kbps = 0.0;
  bool decodable = false;  ///< RSSI above sensitivity and PER < 0.9
};

struct RangeSweepConfig {
  BackscatterLink link;
  OverlayMode mode = OverlayMode::Mode1;
  double max_distance_m = 34.0;
  double step_m = 2.0;
  /// Extra margin on top of rx_sensitivity_dbm(p) (0 = datasheet values).
  double sensitivity_margin_db = 0.0;
};

/// LoS configuration matching §3's hallway deployment.
RangeSweepConfig los_sweep_config();

/// NLoS: tag and transmitter in the office, receiver behind a wall.
RangeSweepConfig nlos_sweep_config();

std::vector<RangePoint> range_sweep(Protocol p, const RangeSweepConfig& cfg);

/// Maximum distance at which the backscattered packets remain decodable.
double max_range_m(Protocol p, const RangeSweepConfig& cfg);

}  // namespace ms
