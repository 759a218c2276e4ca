#include "sim/occlusion_experiment.h"

#include <algorithm>

#include "common/units.h"
#include "sim/excitation.h"

namespace ms {

double OcclusionScenario::original_snr_db(WallMaterial wall, Protocol p) const {
  const double rx_power = link.tx_power_dbm + link.tx_gain_dbi +
                          link.rx_gain_dbi -
                          link.forward.loss_db(tx_rx1_distance_m) -
                          wall_loss_db(wall);
  const double noise = thermal_noise_dbm(protocol_info(p).bandwidth_hz) +
                       link.rx_noise_figure_db;
  // The paper's original links already run near sensitivity in the
  // cluttered office (their unwalled tag BER is 0.2%, Fig 9a); cap the
  // pre-despreading SNR headroom at −3 dB (≈0.2% DBPSK BER after the
  // 10.4 dB Barker gain) so walls push the link over the cliff as in the
  // paper rather than being absorbed by free-space margin.
  constexpr double kClutterCeilingDb = -3.0;
  const double unwalled_snr = rx_power - noise + wall_loss_db(wall);
  return std::min(unwalled_snr, kClutterCeilingDb) - wall_loss_db(wall);
}

std::array<double, 3> baseline_occlusion_ber(const BaselineConfig& baseline,
                                             const OcclusionScenario& sc) {
  const TwoReceiverBaseline sys(baseline);
  const double back_snr = sc.link.snr_db(sc.tag_rx_distance_m, baseline.carrier);
  const std::array<WallMaterial, 3> walls = {
      WallMaterial::None, WallMaterial::Wood, WallMaterial::Concrete};
  std::array<double, 3> out{};
  for (std::size_t i = 0; i < walls.size(); ++i)
    out[i] = sys.tag_ber(sc.original_snr_db(walls[i], baseline.carrier),
                         back_snr);
  return out;
}

std::array<Fig15Row, 4> occlusion_throughput(const OcclusionScenario& sc) {
  constexpr WallMaterial kWall = WallMaterial::Drywall;
  std::array<Fig15Row, 4> rows{};

  // Optional impairments: a fade on the backscatter channel raises the
  // effective receiver noise figure; excitation dropouts steal airtime
  // from every system (no excitation, no tag data).
  BackscatterLink link = sc.link;
  link.rx_noise_figure_db += sc.backscatter_fade_db;
  const double duty_keep =
      std::clamp(1.0 - sc.excitation_dropout_fraction, 0.0, 1.0);

  // Multiscatter's single-receiver decodes first (the original
  // channel's occlusion is irrelevant to them), then the two-receiver
  // baselines whose tag throughput collapses with the drywalled
  // original link.
  for (std::size_t i = 0; i < 2; ++i) {
    const Protocol p = i == 0 ? Protocol::Ble : Protocol::WifiB;
    const ExcitationSpec exc = fig12_excitation(p);
    const OverlayParams params = mode_params(p, OverlayMode::Mode1);
    const Throughput t =
        overlay_throughput_at(exc, params, link, sc.tag_rx_distance_m);
    rows[i] = {i == 0 ? "multiscatter-BLE" : "multiscatter-11b",
               duty_keep * t.tag_bps / 1e3};
  }
  const std::array<BaselineConfig, 2> base = {hitchhike_config(),
                                              freerider_config()};
  for (std::size_t i = 0; i < base.size(); ++i) {
    const BaselineConfig& b = base[i];
    const TwoReceiverBaseline sys(b);
    const ExcitationSpec exc = fig12_excitation(b.carrier);
    const double thr = sys.tag_throughput_bps(
        exc.airtime_duty(), sc.original_snr_db(kWall, b.carrier),
        link.snr_db(sc.tag_rx_distance_m, b.carrier));
    rows[2 + i] = {b.name, duty_keep * thr / 1e3};
  }
  return rows;
}

}  // namespace ms
