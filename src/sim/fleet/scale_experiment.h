// Fleet-scale throughput/BER/capture sweep (bench_scale_tags).
//
// For each tag count N in a sweep, a TagFleet of N tags contends for
// `slots_per_trial` excitation packets per Monte-Carlo trial: each tag
// decides independently (own Rng sub-stream) whether to backscatter in
// each slot and draws its own per-slot fading; the capture engine
// arbitrates every busy slot; decoded slots deliver the winner's tag
// bits weighted by the analytic packet success probability at the slot
// SINR.  For small fleets (N <= waveform_probe_max_tags) one decoded
// slot per trial is additionally rendered at waveform level — per-tag
// backscatter synthesis through the waveform cache, per-tag channels,
// N-way superposition, AWGN, and a real overlay decode of the capture
// winner — so the analytic sweep stays anchored to the bit-true PHY.
//
// Runs on the deterministic trial engine: results and telemetry are
// byte-identical at any --threads and --waveform-cache setting
// (tests/scripts/scale_tags_determinism.sh gates both).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fleet/tag_fleet.h"
#include "sim/runner/trial_runner.h"

namespace ms::fleet {

struct ScaleConfig {
  BackscatterLink link;             ///< shared budget template
  ExcitationSpec excitation;        ///< the one carrier (slot clock)
  CaptureConfig capture;
  std::size_t slots_per_trial = 64;
  double fading_stddev_db = 4.0;    ///< per-tag per-slot log-normal fading
  double min_radius_m = 0.5;        ///< closest tag → receiver distance
  double max_radius_m = 4.0;        ///< farthest tag → receiver distance
  double placement_jitter = 0.1;    ///< per-trial log-normal radius jitter
  /// Slotted-contention load: each tag backscatters in a slot with
  /// probability min(1, contention_load / N), so the expected number of
  /// contenders per slot stays ~contention_load at every fleet size
  /// (the slotted-ALOHA operating point; capture rescues a share of the
  /// overlaps that plain ALOHA would lose).
  double contention_load = 2.0;
  std::size_t n_sequences = 2;      ///< waveform-probe frame length
  std::size_t waveform_probe_max_tags = 8;
  std::vector<std::size_t> tag_counts;  ///< sweep points (1 → 1024)
  std::size_t trials = 4;
  RunnerConfig runner;
};

/// Raw per-trial tallies.
struct ScaleTrial {
  std::uint32_t tags = 0;
  std::uint32_t slots = 0;
  std::uint32_t idle = 0, clean = 0, captured = 0, collision = 0;
  double sinr_sum_db = 0.0;     ///< over decoded (clean+captured) slots
  double ber_sum = 0.0;         ///< analytic tag BER, ditto
  double goodput_bits = 0.0;    ///< success-weighted delivered tag bits
  double waveform_tag_ber = -1.0;  ///< measured probe BER; -1 = no probe
};

/// One sweep point, trial-averaged.
struct ScalePoint {
  std::size_t tags = 0;
  double aggregate_goodput_bps = 0.0;  ///< whole-fleet tag goodput
  double per_tag_goodput_bps = 0.0;
  double clean_rate = 0.0;      ///< fraction of slots, likewise below
  double capture_rate = 0.0;
  double collision_rate = 0.0;
  double idle_rate = 0.0;
  double mean_winner_sinr_db = 0.0;  ///< over decoded slots
  double tag_ber = 0.0;              ///< analytic, over decoded slots
  double waveform_tag_ber = -1.0;    ///< probe average; -1 = never probed
};

/// 1, 2, 4, … doubling up to and including max_tags.
std::vector<std::size_t> default_tag_counts(std::size_t max_tags);

/// One trial cell (exposed for tests; run_scale_experiment fans it out).
ScaleTrial run_scale_trial(const ScaleConfig& cfg, const TagFleet& fleet,
                           Rng& cell_rng);

/// Full sweep on the trial engine, one ScalePoint per tag count in
/// input order (byte-identical at any thread count).
std::vector<ScalePoint> run_scale_experiment(const ScaleConfig& cfg);

}  // namespace ms::fleet
