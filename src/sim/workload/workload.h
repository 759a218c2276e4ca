// Deterministic adversarial workload engine.
//
// The fault benches sweep i.i.d. knobs; real deployments are nastier in
// a *structured* way: BLE advertisers excite the tag for one slot every
// ~20, Wi-Fi sources burst frames at whatever MCS their rate control
// picked, neighbours park interferers on the channel for seconds, and
// the excitation source itself duty-cycles.  This engine replays those
// structures as a per-slot trace of SlotConditions (core/tag/
// link_session.h) that LinkSession::run_trace consumes:
//
//   1. an excitation pattern fills in which slots carry a carrier
//      packet and how much overlay capacity each one has;
//   2. an interferer overlay marks slots a coexistence interferer
//      covers — deterministic parked windows (FaultWindow) plus an
//      i.i.d. background;
//   3. an optional time-varying channel (channel/timevarying.h) adds a
//      per-slot SNR offset from mobility, shadowing, and fading.
//
// Every draw flows through the caller's ms::Rng, so a trace is a pure
// function of (seed, config) — byte-identical at any thread count when
// built inside a TrialRunner cell.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/timevarying.h"
#include "common/rng.h"
#include "core/overlay/throughput.h"
#include "core/tag/link_session.h"
#include "sim/faults/fault_injector.h"

namespace ms {

/// How the excitation source fills the air.
enum class ExcitationPattern {
  Saturated,       ///< a full-capacity carrier packet every slot
  BleAdvertising,  ///< sparse advertising events with advDelay jitter
  WifiMix,         ///< frame bursts from a variable-MCS mix
  DutyCycled,      ///< on/off stretches with geometric lengths
};

/// Legacy BLE advertising: one event roughly every `interval_slots`,
/// plus the spec's advDelay ~ U[0, jitter] (10 ms at a 1 ms slot).
struct BleAdvertisingConfig {
  double interval_slots = 14.0;   ///< ~70 pkt/s at 1 ms slots
  double jitter_slots = 10.0;     ///< advDelay upper bound
  std::size_t event_len_slots = 1;
  float capacity_scale = 1.0f;    ///< capacity of an advertising slot
};

/// One rate-control class in a Wi-Fi traffic mix: a geometric burst of
/// frames at this MCS, then a geometric inter-burst gap.
struct WifiMcsClass {
  double weight = 1.0;           ///< mix probability weight
  float capacity_scale = 1.0f;   ///< overlay capacity vs the nominal slot
  double burst_mean_slots = 8.0;
  double gap_mean_slots = 2.0;
};

struct WifiMixConfig {
  std::vector<WifiMcsClass> classes;
};

/// Source duty cycling: on for ~on_mean slots, silent for ~off_mean.
struct DutyCycleConfig {
  double on_mean_slots = 400.0;
  double off_mean_slots = 400.0;
  float capacity_scale = 1.0f;
};

struct WorkloadConfig {
  std::size_t n_slots = 4000;
  ExcitationPattern pattern = ExcitationPattern::Saturated;
  BleAdvertisingConfig ble;
  WifiMixConfig wifi;
  DutyCycleConfig duty;

  /// Deterministic parked-interferer windows (validated: positive
  /// durations, no overlaps — sim/faults/fault_injector.h).
  std::vector<FaultWindow> interferer_windows;
  double interferer_slot_prob = 0.0;  ///< extra i.i.d. interfered slots

  bool channel_enabled = false;  ///< add the time-varying SNR offset
  TimeVaryingChannelConfig channel;

  /// Throws ms::Error naming the offending knob and value.
  void validate() const;
};

/// Build one trace: excitation pattern → interferer overlay →
/// time-varying channel, in that fixed draw order.
std::vector<SlotConditions> build_workload(const WorkloadConfig& cfg,
                                           Rng& rng);

/// Overlay capacity of `spec`'s packets relative to `nominal`'s, from
/// the airtime model's payload-symbol counts, clamped to (0, 1].  Lets
/// a scenario derive WifiMcsClass/Ble capacity scales from real
/// excitation presets (sim/excitation.h) instead of magic numbers.
float capacity_scale_for(const ExcitationSpec& spec,
                         const ExcitationSpec& nominal);

}  // namespace ms
