#include "sim/diversity_experiment.h"

namespace ms {

namespace {

/// One tag variant's full timeline (slots are sequential: the
/// controller carries adaptation state from slot to slot).
struct VariantRun {
  std::vector<double> kbps_per_slot;
  double busy_fraction = 0.0;
  double mean_kbps = 0.0;
};

VariantRun run_variant_timeline(bool multiprotocol,
                                const BackscatterLink& link,
                                double distance_m, double duration_s,
                                double slot_s, Rng& rng) {
  TagControllerConfig cfg;
  cfg.multiprotocol = multiprotocol;
  if (!multiprotocol) cfg.only_protocol = Protocol::WifiB;
  TagController tag(cfg, link);

  const ExcitationSpec wifi_b = fig12_excitation(Protocol::WifiB);
  const ExcitationSpec wifi_n = fig12_excitation(Protocol::WifiN);
  const double period_s = 10.0;  // 5 s of 802.11b, then 5 s of 802.11n

  VariantRun out;
  for (double t = 0.0; t < duration_s; t += slot_s) {
    const bool b_phase = std::fmod(t, period_s) < period_s / 2.0;
    const ExcitationSpec& active = b_phase ? wifi_b : wifi_n;
    const std::array<ExcitationSpec, 1> on_air = {active};
    const auto r = tag.step(on_air, distance_m, rng);
    out.kbps_per_slot.push_back(r.tag_bps / 1e3 + r.productive_bps / 1e3);
  }
  out.busy_fraction = tag.busy_fraction();
  out.mean_kbps = tag.mean_tag_bps() / 1e3;
  return out;
}

}  // namespace

DiversityResult run_discontinuous_excitations(const BackscatterLink& link,
                                              double distance_m,
                                              double duration_s, double slot_s,
                                              std::uint64_t seed) {
  // The multiscatter tag and the 802.11b-only tag, each on its own
  // (seed, variant, 0) stream.
  const Rng master(seed);
  Rng multi_rng = master.fork(0, 0);
  Rng single_rng = master.fork(1, 0);
  const VariantRun multi = run_variant_timeline(
      /*multiprotocol=*/true, link, distance_m, duration_s, slot_s, multi_rng);
  const VariantRun single = run_variant_timeline(
      /*multiprotocol=*/false, link, distance_m, duration_s, slot_s,
      single_rng);

  DiversityResult out;
  for (std::size_t i = 0; i < multi.kbps_per_slot.size(); ++i)
    out.timeline.push_back({slot_s * static_cast<double>(i),
                            multi.kbps_per_slot[i],
                            single.kbps_per_slot[i]});
  out.multiscatter_busy_fraction = multi.busy_fraction;
  out.single_busy_fraction = single.busy_fraction;
  out.multiscatter_mean_kbps = multi.mean_kbps;
  out.single_mean_kbps = single.mean_kbps;
  return out;
}

CarrierPickResult run_carrier_pick(const BackscatterLink& link,
                                   double distance_m) {
  CarrierPickResult out;

  // Abundant 802.11n, spotty 802.11b (low packet rate → low duty).
  ExcitationSpec wifi_n = fig12_excitation(Protocol::WifiN);
  wifi_n.pkt_rate_hz = 400.0;  // abundant
  ExcitationSpec wifi_b = fig12_excitation(Protocol::WifiB);
  wifi_b.pkt_rate_hz = 2.0;  // spotty
  const std::array<ExcitationSpec, 2> available = {wifi_n, wifi_b};

  double best = 0.0;
  for (const ExcitationSpec& e : available) {
    const OverlayParams params = mode_params(e.protocol, OverlayMode::Mode1);
    const double g = tag_goodput_bps(e, params, link, distance_m);
    if (g > best) {
      best = g;
      out.picked = e.protocol;
    }
  }
  out.multiscatter_goodput_kbps = best / 1e3;
  out.single_11b_goodput_kbps =
      tag_goodput_bps(wifi_b, mode_params(Protocol::WifiB, OverlayMode::Mode1),
                      link, distance_m) /
      1e3;
  out.multiscatter_meets_goal = out.multiscatter_goodput_kbps >= out.goal_kbps;
  out.single_meets_goal = out.single_11b_goodput_kbps >= out.goal_kbps;
  return out;
}

}  // namespace ms
