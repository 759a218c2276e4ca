// Slot-level simulation of the resilient tag link layer.
//
// Each slot is one excitation packet's worth of overlay capacity.  The
// session runs sensor readings through framing (frame.h), Hamming +
// interleaving + repetition FEC (fec.h), stop-and-wait ARQ (arq.h), and
// NACK-driven (γ, FEC-repeat) adaptation (adaptation.h) over a channel
// whose per-slot SNR follows a Gilbert–Elliott quality process
// (channel/impairments.h) with optional i.i.d. burst corruption — the
// knob the fault-injection benches sweep.  Clear-channel assessment
// (channel_sense.h) defers transmission on busy slots.  With ARQ
// disabled the session reproduces the seed behaviour: frames are sent
// once, blind, and a reading with a hole is lost.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "channel/impairments.h"
#include "core/overlay/arq.h"
#include "core/overlay/overlay.h"
#include "core/tag/adaptation.h"
#include "core/tag/channel_sense.h"
#include "core/tag/degradation.h"
#include "phy/protocol.h"

namespace ms {

/// One slot of an adversarial workload trace (sim/workload builds
/// these): what the air and the channel look like while the tag decides
/// whether and how to transmit.
struct SlotConditions {
  bool excitation = true;       ///< a carrier packet is on the air
  bool interferer = false;      ///< coexistence interferer overlaps the slot
  float snr_offset_db = 0.0f;   ///< time-varying channel contribution
  /// Overlay capacity of this slot relative to the session's nominal
  /// sequences_per_slot (shorter/high-MCS excitation packets carry
  /// fewer modulatable sequences).
  float capacity_scale = 1.0f;
};

struct LinkSessionConfig {
  Protocol protocol = Protocol::WifiB;
  OverlayMode mode = OverlayMode::Mode1;
  /// Modulatable-sequence capacity of one slot (≈ payload symbols / κ of
  /// the excitation packet; 300 matches a 300-byte 802.11b packet).
  std::size_t sequences_per_slot = 300;
  double base_snr_db = 4.0;  ///< tag→receiver SNR in the good state

  bool arq_enabled = true;
  ArqConfig arq;
  bool adaptation_enabled = true;
  AdaptationConfig adapt;
  /// Protection used when adaptation is off (and by the non-ARQ path).
  ProtectionLevel fixed{2, 1};
  bool fec_enabled = true;
  std::size_t interleave_rows = 7;

  // --- impairments ---
  LinkQualityConfig link_quality;
  double frame_corrupt_prob = 0.0;  ///< i.i.d. burst corruption per frame
  double burst_fraction = 0.25;     ///< corrupted run / coded frame bits
  double ack_loss_prob = 0.0;       ///< feedback channel imperfection
  double sense_busy_prob = 0.0;     ///< P(clear-channel assessment busy)
  ChannelSenseConfig sense;

  // --- graceful degradation ---
  EnergyPolicyConfig energy;       ///< Table-4 capacitor model
  RetryBudgetConfig retry_budget;  ///< bound on retransmission spend
  /// P(the CCA catches a coexistence interferer and defers); a missed
  /// interferer stomps the transmitted frame instead.
  double interferer_cca_prob = 0.5;
  /// Corrupted run / coded frame bits when an interferer is missed.
  double interferer_stomp_fraction = 0.8;

  std::size_t reading_bytes = 96;  ///< sensor reading size

  /// Sensor cadence: reading k is not offered before slot k * interval,
  /// so a session spans its trace instead of draining the reading queue
  /// in the first few clean slots.  0 = as fast as the link resolves
  /// them.
  std::size_t reading_interval_slots = 0;

  uint8_t tag_id = 1;
};

struct LinkSessionReport {
  std::size_t slots = 0;
  std::size_t slots_deferred = 0;  ///< channel sensed busy
  std::size_t readings_offered = 0;
  std::size_t readings_delivered = 0;
  std::size_t frames_corrupted = 0;  ///< frames that failed CRC ≥ once
  std::size_t frames_recovered = 0;  ///< …and were eventually delivered
  std::size_t acks_lost = 0;
  std::size_t duplicates_seen = 0;
  ArqSender::Stats sender;
  double delivered_bytes = 0.0;
  double mean_gamma = 0.0;          ///< transmission-weighted
  double mean_fec_repeats = 0.0;
  std::size_t level_switches = 0;
  double final_nack_rate = 0.0;

  // --- degradation path ---
  std::size_t slots_dark = 0;        ///< no excitation on the air
  std::size_t slots_undersized = 0;  ///< frame did not fit the slot
  std::size_t brownouts = 0;         ///< capacitor collapses
  std::size_t slots_browned_out = 0; ///< slots spent dark, recharging
  std::size_t resyncs = 0;           ///< recoveries out of a brownout
  std::size_t retries_shed = 0;      ///< retransmissions the budget refused
  std::size_t energy_deferrals = 0;  ///< governor deferred a transmission
  std::size_t energy_violations = 0; ///< underfunded active slots (blind)
  double energy_harvested_j = 0.0;
  double energy_spent_j = 0.0;
  std::size_t recoveries = 0;        ///< outage → next delivered reading
  double recover_slots_total = 0.0;

  /// Mean slots from an outage (brownout) to the next delivered
  /// reading; 0 when no outage was ever recovered from.
  double mean_time_to_recover_slots() const {
    return recoveries == 0 ? 0.0
                           : recover_slots_total /
                                 static_cast<double>(recoveries);
  }

  double goodput_bits_per_slot() const {
    return slots == 0 ? 0.0 : delivered_bytes * 8.0 / static_cast<double>(slots);
  }
  double reading_delivery_rate() const {
    return readings_offered == 0
               ? 0.0
               : static_cast<double>(readings_delivered) /
                     static_cast<double>(readings_offered);
  }
  /// Fraction of corrupted frames the ARQ loop eventually delivered.
  double recovery_rate() const {
    return frames_corrupted == 0
               ? 1.0
               : static_cast<double>(frames_recovered) /
                     static_cast<double>(frames_corrupted);
  }
};

class LinkSession {
 public:
  explicit LinkSession(LinkSessionConfig cfg);

  /// Offer `n_readings` random sensor readings and run one slot per
  /// SlotConditions entry (dark air, coexistence interferers,
  /// time-varying SNR, variable slot capacity), with the full graceful-
  /// degradation stack — capacitor governor, brownout + resync, retry
  /// budget, holdoff jitter — engaged as configured.  Stops when the
  /// trace is exhausted or all readings are resolved (delivered or
  /// abandoned).  A trace of default SlotConditions is clear air.
  LinkSessionReport run_trace(std::size_t n_readings,
                              std::span<const SlotConditions> trace,
                              Rng& rng);

  /// Largest frame payload (bytes) whose FEC-coded, repeated frame fits
  /// one slot at the given protection level.  Throws ms::Error when even
  /// a 1-byte payload does not fit.
  std::size_t frame_payload_budget(const ProtectionLevel& level) const;

  /// Tag-bit capacity of one slot at spreading factor γ.
  std::size_t slot_capacity_bits(unsigned gamma) const;

  const LinkSessionConfig& config() const { return cfg_; }

 private:
  /// Size of encode_frame()'s output for a `payload_bytes` frame at
  /// `level` (framing, FEC, repetition), computed without encoding.
  std::size_t coded_frame_bits(std::size_t payload_bytes,
                               const ProtectionLevel& level) const;
  Bits encode_frame(const TagFrame& frame, const ProtectionLevel& level) const;
  std::optional<TagFrame> decode_frame(std::span<const uint8_t> coded,
                                       const ProtectionLevel& level) const;

  LinkSessionConfig cfg_;
  OverlayParams overlay_;
};

}  // namespace ms
