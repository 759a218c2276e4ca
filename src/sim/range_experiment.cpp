#include "sim/range_experiment.h"

#include <algorithm>

#include "channel/ber.h"

namespace ms {

RangeSweepConfig los_sweep_config() {
  RangeSweepConfig cfg;
  cfg.link.forward = los_model();
  cfg.link.backward = los_model();
  return cfg;
}

RangeSweepConfig nlos_sweep_config() {
  RangeSweepConfig cfg;
  cfg.link.forward = los_model();    // tag is next to the transmitter
  cfg.link.backward = nlos_model();  // receiver behind office clutter
  return cfg;
}

std::vector<RangePoint> range_sweep(Protocol p, const RangeSweepConfig& cfg) {
  const ExcitationSpec exc = fig12_excitation(p);
  const OverlayParams params = mode_params(p, cfg.mode);
  const std::size_t n_points = static_cast<std::size_t>(
      (cfg.max_distance_m + 1e-9) / cfg.step_m);
  std::vector<RangePoint> out(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double d = cfg.step_m * static_cast<double>(i + 1);
    RangePoint& pt = out[i];
    pt.distance_m = d;
    pt.rssi_dbm = cfg.link.rssi_dbm(d);
    const double snr = cfg.link.snr_db(d, p);
    pt.productive_ber = productive_ber(p, snr);
    pt.tag_ber = backscatter_tag_ber(p, snr, params.gamma);
    // Backscatter range is bounded by the radio's sensitivity and by the
    // tag stream staying decodable (its per-packet bit count is small).
    const double n_tag_bits = std::max(
        1.0, static_cast<double>(exc.payload_symbols()) / params.kappa *
                 static_cast<double>(params.tag_bits_per_sequence()));
    const double per = per_from_ber(pt.tag_ber, n_tag_bits);
    pt.decodable =
        pt.rssi_dbm > rx_sensitivity_dbm(p) + cfg.sensitivity_margin_db &&
        per < 0.9;
    const Throughput t = overlay_throughput_at(exc, params, cfg.link, d);
    pt.aggregate_kbps = pt.decodable ? t.aggregate_bps() / 1e3 : 0.0;
  }
  return out;
}

double max_range_m(Protocol p, const RangeSweepConfig& cfg) {
  RangeSweepConfig fine = cfg;
  fine.step_m = 0.5;
  double best = 0.0;
  for (const RangePoint& pt : range_sweep(p, fine))
    if (pt.decodable) best = pt.distance_m;
  return best;
}

}  // namespace ms
