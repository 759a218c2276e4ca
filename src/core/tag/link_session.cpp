#include "core/tag/link_session.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "channel/link.h"
#include "common/error.h"
#include "core/overlay/fec.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ms {

namespace {

// Telemetry ids (docs/OBSERVABILITY.md).  Slot-SNR buckets span the
// operating range the sweeps exercise.
constexpr std::array<double, 7> kSnrBounds = {-5.0, 0.0,  5.0, 10.0,
                                              15.0, 20.0, 25.0};

struct LinkMetrics {
  obs::MetricId slots = obs::counter("tag.slots");
  obs::MetricId slots_deferred = obs::counter("tag.slots_deferred");
  obs::MetricId frames_tx = obs::counter("tag.frames_tx");
  obs::MetricId crc_ok = obs::counter("tag.crc_ok");
  obs::MetricId crc_fail = obs::counter("tag.crc_fail");
  obs::MetricId frame_corrupt = obs::counter("tag.frame_corrupt");
  obs::MetricId arq_retry = obs::counter("tag.arq_retry");
  obs::MetricId arq_drop = obs::counter("tag.arq_drop");
  obs::MetricId acks_lost = obs::counter("tag.acks_lost");
  obs::MetricId readings_delivered = obs::counter("tag.readings_delivered");
  obs::MetricId adapt_switch = obs::counter("tag.adapt_switch");
  obs::MetricId slot_snr = obs::histogram("tag.slot_snr_db", kSnrBounds);
  // Degradation path.
  obs::MetricId slots_dark = obs::counter("tag.slots_dark");
  obs::MetricId slot_undersized = obs::counter("tag.slot_undersized");
  obs::MetricId retry_shed = obs::counter("tag.retry_shed");
  obs::MetricId energy_deferral = obs::counter("tag.energy_deferral");
  obs::MetricId brownout = obs::counter("tag.brownout");
  obs::MetricId slots_browned_out = obs::counter("tag.slots_browned_out");
  obs::MetricId resync = obs::counter("tag.resync");
  obs::MetricId interferer_stomp = obs::counter("tag.interferer_stomp");
};

const LinkMetrics& link_metrics() {
  static const LinkMetrics m;
  return m;
}

}  // namespace

LinkSession::LinkSession(LinkSessionConfig cfg)
    : cfg_(std::move(cfg)),
      overlay_(mode_params(cfg_.protocol, cfg_.mode)) {
  MS_CHECK(cfg_.sequences_per_slot >= 1);
  MS_CHECK(cfg_.reading_bytes >= 1);
  MS_CHECK(cfg_.burst_fraction > 0.0 && cfg_.burst_fraction <= 1.0);
  MS_CHECK(cfg_.interferer_cca_prob >= 0.0 && cfg_.interferer_cca_prob <= 1.0);
  MS_CHECK(cfg_.interferer_stomp_fraction > 0.0 &&
           cfg_.interferer_stomp_fraction <= 1.0);
  // Every protection level must fit at least a 1-byte frame in a slot.
  if (cfg_.arq_enabled && cfg_.adaptation_enabled)
    for (const ProtectionLevel& l : cfg_.adapt.ladder) frame_payload_budget(l);
  frame_payload_budget(cfg_.fixed);
}

std::size_t LinkSession::slot_capacity_bits(unsigned gamma) const {
  MS_CHECK(gamma >= 1);
  const std::size_t per_seq = (overlay_.kappa - 1) / gamma;
  MS_CHECK_MSG(per_seq >= 1,
               "spreading factor too large for the overlay's kappa");
  return cfg_.sequences_per_slot * per_seq;
}

std::size_t LinkSession::coded_frame_bits(std::size_t payload_bytes,
                                          const ProtectionLevel& level) const {
  const std::size_t raw = TagFrame::frame_bits(payload_bytes);
  const std::size_t coded =
      cfg_.fec_enabled ? TagFec{cfg_.interleave_rows}.coded_size(raw) : raw;
  return coded * level.fec_repeats;
}

std::size_t LinkSession::frame_payload_budget(
    const ProtectionLevel& level) const {
  MS_CHECK(level.fec_repeats >= 1);
  const std::size_t capacity = slot_capacity_bits(level.gamma);
  for (std::size_t p = TagFrame::kMaxPayload; p >= 1; --p)
    if (coded_frame_bits(p, level) <= capacity) return p;
  throw Error("slot capacity below one framed payload byte at protection "
              "level gamma=" + std::to_string(level.gamma) +
              " repeats=" + std::to_string(level.fec_repeats));
}

Bits LinkSession::encode_frame(const TagFrame& frame,
                               const ProtectionLevel& level) const {
  Bits bits = frame.to_bits();
  if (cfg_.fec_enabled) bits = TagFec{cfg_.interleave_rows}.encode(bits);
  if (level.fec_repeats > 1) bits = repeat_bits(bits, level.fec_repeats);
  return bits;
}

std::optional<TagFrame> LinkSession::decode_frame(
    std::span<const uint8_t> coded, const ProtectionLevel& level) const {
  Bits voted;
  if (level.fec_repeats > 1) {
    voted = majority_vote(coded, level.fec_repeats);
    coded = voted;
  }
  if (!cfg_.fec_enabled) return TagFrame::from_bits(coded);
  // The receiver knows only the coded length; decode every whole
  // Hamming block and let the frame parser skip the trailing padding.
  const std::size_t data_bits = coded.size() / 7 * 4;
  return TagFrame::from_bits(
      TagFec{cfg_.interleave_rows}.decode(coded, data_bits));
}

namespace {

/// Synthesize the envelope the tag's clear-channel assessment sees:
/// quiet air sits well below the sensing threshold, a busy channel well
/// above it.
std::array<float, 32> sense_envelope(bool busy, const ChannelSenseConfig& sense,
                                     Rng& rng) {
  std::array<float, 32> env{};
  const float level = busy ? static_cast<float>(4.0 * sense.threshold_v)
                           : static_cast<float>(0.2 * sense.threshold_v);
  for (float& v : env)
    v = level * (0.8f + 0.4f * static_cast<float>(rng.uniform()));
  return env;
}

}  // namespace

LinkSessionReport LinkSession::run_trace(std::size_t n_readings,
                                         std::span<const SlotConditions> trace,
                                         Rng& rng) {
  OBS_SCOPE("tag.link_session_trace");
  const LinkMetrics& lm = link_metrics();
  LinkSessionReport rep;
  ArqSender sender(cfg_.arq);
  ArqReceiver arq_rx;
  std::deque<TagFrame> blind_queue;  // non-ARQ: fire-and-forget
  FrameAssembler assembler;
  AdaptivePolicy policy(cfg_.adapt);
  LinkQualityProcess quality(cfg_.link_quality);
  const ChannelSensor sensor(cfg_.sense);
  EnergyGovernor energy(cfg_.energy);
  RetryBudget budget(cfg_.retry_budget);

  ProtectionLevel level = cfg_.fixed;
  bool head_failed = false;  // current ARQ head frame failed at least once
  std::size_t transmissions = 0;
  bool in_outage = false;       // brownout happened, no delivery since
  std::size_t outage_start = 0; // slot the current outage began

  const auto pending = [&] {
    return cfg_.arq_enabled ? !sender.idle() : !blind_queue.empty();
  };
  // A slot the tag sits out: holdoff still elapses (time passes on the
  // air whether or not we use it) and the capacitor trickles.
  const auto idle_slot = [&] {
    if (cfg_.arq_enabled) sender.tick_holdoff();
    energy.idle_step();
  };
  const auto mark_delivered = [&](std::size_t bytes) {
    ++rep.readings_delivered;
    rep.delivered_bytes += static_cast<double>(bytes);
    obs::add(lm.readings_delivered);
    if (in_outage) {
      ++rep.recoveries;
      rep.recover_slots_total += static_cast<double>(rep.slots - outage_start);
      in_outage = false;
    }
  };

  for (const SlotConditions& c : trace) {
    if (rep.readings_offered >= n_readings && !pending()) break;
    ++rep.slots;
    obs::set_sim_time(static_cast<double>(rep.slots));
    obs::add(lm.slots);
    budget.step();

    // Browned out: the tag is dark, only the harvester runs.
    if (energy.browned_out()) {
      if (!in_outage) {
        in_outage = true;
        outage_start = rep.slots;
      }
      ++rep.slots_browned_out;
      obs::add(lm.slots_browned_out);
      if (energy.idle_step()) {
        // Crossed the resume threshold: cold boot.  RAM — and the link
        // state in it — is gone; the receiver resyncs on the sequence
        // jump and discards its holed partial.
        ++rep.resyncs;
        obs::add(lm.resync);
        if (cfg_.arq_enabled) sender.reset_after_brownout();
        blind_queue.clear();
        head_failed = false;
        obs::Event(obs::Subsystem::Arq, obs::Severity::Warn, "tag.resync")
            .f("slot", rep.slots)
            .f("energy_j", energy.energy_j())
            .emit();
      }
      continue;
    }

    const double snr_db =
        cfg_.base_snr_db + quality.step(rng) + c.snr_offset_db;
    obs::observe(lm.slot_snr, snr_db);

    // Readings are (re-)framed at the protection level in force when
    // they are offered; the level then holds until the reading resolves.
    // The sensor cadence gates the offer: reading k exists only from
    // slot k * interval on.
    if (!pending() && rep.readings_offered < n_readings &&
        rep.slots > rep.readings_offered * cfg_.reading_interval_slots) {
      ++rep.readings_offered;
      const Bytes reading = rng.bytes(cfg_.reading_bytes);
      level = (cfg_.arq_enabled && cfg_.adaptation_enabled) ? policy.level()
                                                            : cfg_.fixed;
      const std::size_t payload = frame_payload_budget(level);
      if (cfg_.arq_enabled) {
        sender.load_reading(cfg_.tag_id, reading, payload);
      } else {
        for (TagFrame& f : segment_reading(cfg_.tag_id, reading,
                                           TagFrame::frame_bits(payload)))
          blind_queue.push_back(std::move(f));
      }
    }

    // Dark air: no excitation packet to modulate; park and recharge.
    if (!c.excitation) {
      ++rep.slots_dark;
      obs::add(lm.slots_dark);
      idle_slot();
      continue;
    }

    // Clear-channel assessment: genuinely busy air, plus any
    // coexistence interferer the CCA manages to catch.  A missed
    // interferer stomps the frame on the air instead.
    bool busy = rng.chance(cfg_.sense_busy_prob);
    bool interferer_missed = false;
    if (c.interferer) {
      if (rng.chance(cfg_.interferer_cca_prob))
        busy = true;
      else
        interferer_missed = true;
    }
    if (sensor.channel_busy(sense_envelope(busy, cfg_.sense, rng))) {
      ++rep.slots_deferred;
      obs::add(lm.slots_deferred);
      idle_slot();
      continue;
    }

    if (!pending() || (cfg_.arq_enabled && sender.holdoff() > 0)) {
      idle_slot();
      continue;
    }

    // Retry budget: retransmissions spend tokens; an empty bucket sheds
    // the retry and the head frame simply waits another slot.
    if (cfg_.arq_enabled && sender.attempts() > 0 && !budget.take()) {
      obs::add(lm.retry_shed);
      obs::Event(obs::Subsystem::Arq, obs::Severity::Info, "arq.retry_shed")
          .f("attempts", sender.attempts())
          .f("tokens", budget.tokens())
          .emit();
      idle_slot();
      continue;
    }

    // Variable slot capacity: short / high-MCS excitation packets carry
    // fewer modulatable sequences, and a frame that does not fit waits
    // for a roomier slot.  The coded length is an integer below 2^53,
    // so comparing it with the scaled capacity in double is exact: it
    // fits iff it fits the floor of that capacity.
    MS_CHECK_MSG(std::isfinite(c.capacity_scale) && c.capacity_scale >= 0.0f,
                 "SlotConditions::capacity_scale must be finite and >= 0");
    const TagFrame* head =
        cfg_.arq_enabled ? sender.peek() : &blind_queue.front();
    const std::size_t coded_len = coded_frame_bits(head->payload.size(), level);
    if (static_cast<double>(coded_len) >
        static_cast<double>(c.capacity_scale) *
            static_cast<double>(slot_capacity_bits(level.gamma))) {
      ++rep.slots_undersized;
      obs::add(lm.slot_undersized);
      idle_slot();
      continue;
    }

    // Governor: skip transmissions the capacitor cannot fund without
    // dipping into the reserve.
    if (!energy.allow_active()) {
      ++rep.energy_deferrals;
      obs::add(lm.energy_deferral);
      idle_slot();
      continue;
    }

    // Commit to the transmission.
    std::optional<TagFrame> frame;
    if (cfg_.arq_enabled) {
      frame = sender.poll();
      MS_CHECK(frame.has_value());
    } else {
      frame = std::move(blind_queue.front());
      blind_queue.pop_front();
    }
    ++transmissions;
    rep.mean_gamma += level.gamma;
    rep.mean_fec_repeats += level.fec_repeats;
    obs::add(lm.frames_tx);
    obs::Event(obs::Subsystem::Overlay, obs::Severity::Debug, "tag.frame_tx")
        .f("kappa", overlay_.kappa)
        .f("gamma", level.gamma)
        .f("fec_repeats", level.fec_repeats)
        .f("snr_db", snr_db)
        .emit();

    if (energy.active_step()) {
      // The PMIC cut out under load: nothing coherent reached the
      // receiver and RAM — with the ARQ state in it — died mid-frame.
      obs::add(lm.brownout);
      obs::Event(obs::Subsystem::Faults, obs::Severity::Warn, "tag.brownout")
          .f("slot", rep.slots)
          .f("attempts", cfg_.arq_enabled ? sender.attempts() : 0u)
          .emit();
      if (cfg_.arq_enabled) sender.reset_after_brownout();
      blind_queue.clear();
      head_failed = false;
      if (!in_outage) {
        in_outage = true;
        outage_start = rep.slots;
      }
      continue;
    }

    // Through the channel: per-bit flips at the slot's tag BER, the
    // fault injector's i.i.d. burst corruption, and any missed
    // coexistence interferer stomping a contiguous run.  Coding draws
    // nothing from rng, so the frame is encoded only now that it is
    // certain to go out.
    Bits coded = encode_frame(*frame, level);
    const double ber = backscatter_tag_ber(cfg_.protocol, snr_db, level.gamma);
    for (uint8_t& b : coded)
      if (rng.chance(ber)) b ^= 1u;
    if (cfg_.frame_corrupt_prob > 0.0 && rng.chance(cfg_.frame_corrupt_prob)) {
      const std::size_t len = std::max<std::size_t>(
          1, static_cast<std::size_t>(cfg_.burst_fraction *
                                      static_cast<double>(coded.size())));
      const std::size_t start = rng.uniform_int(coded.size());
      for (std::size_t i = start; i < std::min(coded.size(), start + len); ++i)
        coded[i] ^= 1u;
      obs::add(lm.frame_corrupt);
      obs::Event(obs::Subsystem::Faults, obs::Severity::Warn,
                 "fault.frame_corrupt")
          .f("start", start)
          .f("len", len)
          .f("coded_bits", coded.size())
          .emit();
    }
    if (interferer_missed) {
      const std::size_t len = std::max<std::size_t>(
          1, static_cast<std::size_t>(cfg_.interferer_stomp_fraction *
                                      static_cast<double>(coded.size())));
      // Unlike the i.i.d. burst above, the stomp run is placed so the
      // configured fraction always lands in full: the knob means what
      // it says.
      const std::size_t start = rng.uniform_int(coded.size() - len + 1);
      for (std::size_t i = start; i < start + len; ++i) coded[i] ^= 1u;
      obs::add(lm.interferer_stomp);
      obs::Event(obs::Subsystem::Faults, obs::Severity::Warn,
                 "fault.interferer_stomp")
          .f("start", start)
          .f("len", len)
          .f("coded_bits", coded.size())
          .emit();
    }
    const std::optional<TagFrame> rx = decode_frame(coded, level);
    obs::add(rx ? lm.crc_ok : lm.crc_fail);
    if (!rx) {
      obs::Event(obs::Subsystem::Overlay, obs::Severity::Info, "tag.crc_fail")
          .f("kappa", overlay_.kappa)
          .f("gamma", level.gamma)
          .f("snr_db", snr_db)
          .emit();
    }

    if (cfg_.arq_enabled) {
      bool acked = false;
      if (rx) {
        const ArqReceiver::Result res = arq_rx.push(*rx);
        if (res.duplicate) ++rep.duplicates_seen;
        if (res.reading) mark_delivered(res.reading->size());
        if (rng.chance(cfg_.ack_loss_prob)) {
          ++rep.acks_lost;
          obs::add(lm.acks_lost);
        } else {
          acked = true;
        }
      }
      if (acked) {
        if (head_failed) ++rep.frames_recovered;
        head_failed = false;
        sender.on_ack();
      } else {
        if (!rx && !head_failed) {
          head_failed = true;
          ++rep.frames_corrupted;
        }
        const std::size_t drops_before = sender.stats().frames_dropped;
        const unsigned attempts = sender.attempts();
        // Holdoff jitter desynchronizes tags sharing an interferer.
        unsigned jitter = 0;
        if (cfg_.arq.holdoff_jitter_slots > 0)
          jitter = static_cast<unsigned>(
              rng.uniform_int(cfg_.arq.holdoff_jitter_slots + 1));
        sender.on_nack(jitter);
        if (sender.stats().frames_dropped != drops_before) {
          head_failed = false;  // gave up on this frame
          obs::add(lm.arq_drop);
          obs::Event(obs::Subsystem::Arq, obs::Severity::Warn, "arq.drop")
              .f("attempts", attempts)
              .emit();
        } else {
          obs::add(lm.arq_retry);
          obs::Event(obs::Subsystem::Arq, obs::Severity::Info, "arq.retry")
              .f("attempt", attempts)
              .f("holdoff", sender.holdoff())
              .f("jitter", jitter)
              .emit();
        }
      }
      if (cfg_.adaptation_enabled) {
        const std::size_t switches_before = policy.switches();
        policy.on_frame_result(acked);
        if (policy.switches() != switches_before) {
          obs::add(lm.adapt_switch);
          obs::Event(obs::Subsystem::Arq, obs::Severity::Info, "arq.adapt")
              .f("level", policy.level_index())
              .f("gamma", policy.level().gamma)
              .f("fec_repeats", policy.level().fec_repeats)
              .f("nack_rate", policy.nack_rate())
              .f("probing", policy.probing())
              .emit();
        }
      }
    } else {
      if (rx) {
        if (std::optional<Bytes> done = assembler.push(*rx))
          mark_delivered(done->size());
      } else {
        ++rep.frames_corrupted;
      }
    }
  }

  rep.sender = sender.stats();
  if (transmissions > 0) {
    rep.mean_gamma /= static_cast<double>(transmissions);
    rep.mean_fec_repeats /= static_cast<double>(transmissions);
  }
  rep.level_switches = policy.switches();
  rep.final_nack_rate = policy.nack_rate();
  rep.retries_shed = budget.shed();
  const EnergyGovernor::Stats& es = energy.stats();
  rep.brownouts = es.brownouts;
  rep.energy_violations = es.violations;
  rep.energy_harvested_j = es.harvested_j;
  rep.energy_spent_j = es.spent_j;
  return rep;
}

}  // namespace ms
