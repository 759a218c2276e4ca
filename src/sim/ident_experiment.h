// Monte-Carlo protocol-identification experiments (Figs 5b, 7, 8).
//
// Each trial synthesizes one protocol's packet-detection waveform, passes
// it through RF noise, the front end, the rectifier, and the ADC, then
// asks the identifier what it saw.  Accuracy is tallied per true
// protocol, plus a full confusion matrix (column 4 = "no match").
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "channel/multipath.h"
#include "common/rng.h"
#include "core/ident/identifier.h"
#include "sim/faults/fault_injector.h"

namespace ms {

struct IdentTrialConfig {
  IdentifierConfig ident;
  double rf_snr_db = 20.0;      ///< IQ-domain SNR at the tag antenna
                                ///  (tag sits 0.8 m from the source)
  double amp_min = 0.5;          ///< random per-trial amplitude scale
  double amp_max = 1.0;
  double jitter_max_s = 2e-6;    ///< random packet start offset
  /// Optional per-trial small-scale fading (a fresh channel realization
  /// per packet — the "different locations" axis of the paper's study).
  bool multipath = false;
  MultipathConfig multipath_cfg;
  /// Fraction of 802.11b trials transmitted with the 72 µs short
  /// preamble (footnote 1).  The stored template is built from the long
  /// preamble, so short-preamble traffic probes template mismatch.
  double wifi_b_short_preamble_fraction = 0.0;
  /// Optional seeded impairments: excitation faults (CFO, clock drift,
  /// dropouts, bursts) hit the IQ before noise; ADC faults (truncation,
  /// duplication) hit the acquired sample stream.  All knobs default to
  /// zero, which draws exactly the seed model's Rng stream.
  FaultConfig faults;
  std::uint64_t seed = 1;
  /// Trial-engine worker threads (0 = all cores).  Results are
  /// byte-identical for any value: every trial draws from its own
  /// counter-based (seed, protocol, trial) stream and tallies merge in
  /// fixed grid order.
  std::size_t threads = 0;
};

struct IdentResult {
  /// confusion[true][detected]; detected index 4 = no match.
  std::array<std::array<std::size_t, 5>, 4> confusion{};

  double accuracy(Protocol p) const;
  double average_accuracy() const;
  std::size_t trials(Protocol p) const;
};

/// Single-trial trace generation (exposed for tests and benches).
Samples make_ident_trace(Protocol p, const IdentTrialConfig& cfg, Rng& rng);

/// Run `trials_per_protocol` trials of every protocol.
IdentResult run_ident_experiment(const IdentTrialConfig& cfg,
                                 std::size_t trials_per_protocol);

/// Full §2.3.2 search: all 24 matching orders × the threshold grid.
/// Returns the best (order, thresholds) pair by average accuracy.
struct OrderedCalibration {
  std::array<Protocol, 4> order{};
  std::array<double, 4> thresholds{};
  double calibration_accuracy = 0.0;
};
OrderedCalibration calibrate_ordered_matching(IdentTrialConfig cfg,
                                              std::size_t trials_per_protocol);

namespace detail {

/// One calibration trial: the true protocol's index and the four scores,
/// both indexed by protocol_index().
struct CalTrial {
  std::size_t truth;
  std::array<double, 4> scores;
};

/// The thresholds calibrate_ordered_matching tries for every protocol.
inline constexpr std::array<double, 12> kThresholdGrid = {
    0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.60, 0.70, 0.80, 0.90};

struct ThresholdSearch {
  double acc = -1.0;
  std::array<double, 4> thr{};
};

/// The per-order step of calibrate_ordered_matching, exposed for its
/// differential test: the kThresholdGrid tuple (t0..t3, one per stage of
/// `order`, a permutation of the four protocols) with the highest average
/// per-protocol accuracy on `trials`.  Ties go to the first tuple in
/// (t0, t1, t2, t3) order.
ThresholdSearch search_thresholds(const std::vector<CalTrial>& trials,
                                  const std::array<Protocol, 4>& order);

}  // namespace detail

}  // namespace ms
