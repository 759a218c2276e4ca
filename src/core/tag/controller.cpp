#include "core/tag/controller.h"

namespace ms {

TagController::TagController(TagControllerConfig cfg, BackscatterLink link)
    : cfg_(cfg), link_(link) {}

TagController::StepResult TagController::step(
    std::span<const ExcitationSpec> on_air, double distance_m, Rng& rng) {
  ++steps_;
  StepResult r;

  // A single-protocol tag only sees its own carrier.
  std::vector<ExcitationSpec> usable;
  for (const ExcitationSpec& e : on_air) {
    if (!cfg_.multiprotocol && e.protocol != cfg_.only_protocol) continue;
    usable.push_back(e);
  }
  if (usable.empty()) return r;

  // The identifier occasionally fails on a present excitation.  A miss
  // either commits to the wrong template (the slot is spent modulating
  // garbage) or abstains — in which case the fast re-arm lets the tag
  // sense again up to abstain_retries times before giving up the slot.
  for (unsigned attempt = 0;; ++attempt) {
    if (rng.chance(cfg_.ident_accuracy)) break;
    // At the default wrong_commit_fraction == 1.0 this draws exactly the
    // same Rng stream as the seed model (one draw per miss).
    if (cfg_.wrong_commit_fraction >= 1.0 ||
        rng.chance(cfg_.wrong_commit_fraction)) {
      ++wrong_commits_;
      r.wrong_commit = true;
      return r;
    }
    ++abstains_;
    r.abstained = true;
    if (attempt >= cfg_.abstain_retries) return r;
  }

  // Mode parameters depend on the chosen carrier's protocol.
  std::optional<std::size_t> pick;
  if (cfg_.multiprotocol) {
    // Evaluate each candidate with its own protocol's mode parameters.
    double best = 0.0;
    for (std::size_t i = 0; i < usable.size(); ++i) {
      const OverlayParams params = mode_params(usable[i].protocol, cfg_.mode);
      const double g = tag_goodput_bps(usable[i], params, link_, distance_m);
      if (g > best) {
        best = g;
        pick = i;
      }
    }
  } else {
    pick = 0;
  }
  if (!pick) return r;

  const ExcitationSpec& chosen = usable[*pick];
  const OverlayParams params = mode_params(chosen.protocol, cfg_.mode);
  const Throughput t = overlay_throughput_at(chosen, params, link_, distance_m);
  r.transmitted = t.tag_bps > 0.0;
  r.carrier = chosen.protocol;
  r.tag_bps = t.tag_bps;
  r.productive_bps = t.productive_bps;
  if (r.transmitted) ++busy_steps_;
  tag_bps_sum_ += r.tag_bps;
  return r;
}

double TagController::busy_fraction() const {
  return steps_ == 0 ? 0.0
                     : static_cast<double>(busy_steps_) /
                           static_cast<double>(steps_);
}

double TagController::mean_tag_bps() const {
  return steps_ == 0 ? 0.0 : tag_bps_sum_ / static_cast<double>(steps_);
}

}  // namespace ms
