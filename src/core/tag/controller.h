// Tag-side control loop: identify the current excitation, pick the best
// carrier when several are available, and backscatter — or idle when no
// usable carrier exists.  This is what gives multiscatter its excitation
// diversity (Fig 18): a single-protocol tag idles whenever its one
// carrier is absent.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/overlay/throughput.h"

namespace ms {

struct TagControllerConfig {
  bool multiprotocol = true;  ///< false = single-protocol baseline tag
  Protocol only_protocol = Protocol::WifiB;  ///< used when !multiprotocol
  OverlayMode mode = OverlayMode::Mode1;
  /// Probability the identifier labels a present excitation correctly
  /// (from the identification experiments, ~0.93 at 2.5 Msps).
  double ident_accuracy = 0.93;
  /// Of identification failures, the fraction that *commits to a wrong
  /// protocol* (modulating garbage onto the air) rather than abstaining.
  /// 1.0 reproduces the seed model where every miss transmits garbage;
  /// with the identifier's abstain margin enabled most misses abstain
  /// instead (see IdentifierConfig::abstain_margin).
  double wrong_commit_fraction = 1.0;
  /// Quick re-sense attempts after an abstain within the same slot (the
  /// streaming identifier's fast re-arm).  0 = an abstained slot idles.
  unsigned abstain_retries = 0;
};

/// Slot-based tag simulation.  Each step sees the set of excitations on
/// the air during the slot and returns the tag throughput achieved.  A
/// multiprotocol tag picks the carrier with the best expected tag
/// goodput (Fig 18b's carrier-selection policy), the first on a tie, and
/// idles when none has any.
class TagController {
 public:
  explicit TagController(TagControllerConfig cfg, BackscatterLink link);

  struct StepResult {
    bool transmitted = false;
    std::optional<Protocol> carrier;
    double tag_bps = 0.0;
    double productive_bps = 0.0;
    bool abstained = false;     ///< at least one abstain during the slot
    bool wrong_commit = false;  ///< slot wasted modulating the wrong scheme
  };

  StepResult step(std::span<const ExcitationSpec> on_air, double distance_m,
                  Rng& rng);

  /// Totals across all steps so far.
  double busy_fraction() const;
  double mean_tag_bps() const;
  /// Slots lost to committing the wrong protocol (garbage on the air).
  std::size_t wrong_commits() const { return wrong_commits_; }
  /// Abstain events (each is a withheld verdict, not a garbage packet).
  std::size_t abstains() const { return abstains_; }

  const TagControllerConfig& config() const { return cfg_; }

 private:
  TagControllerConfig cfg_;
  BackscatterLink link_;
  std::size_t steps_ = 0;
  std::size_t busy_steps_ = 0;
  std::size_t wrong_commits_ = 0;
  std::size_t abstains_ = 0;
  double tag_bps_sum_ = 0.0;
};

}  // namespace ms
