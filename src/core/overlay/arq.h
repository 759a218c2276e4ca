// Stop-and-wait ARQ on top of TagFrame (frame.h).
//
// The overlay channel gives the tag a slot per excitation packet; a
// corrupted frame used to be simply lost, wrecking any multi-frame
// reading.  ArqSender renumbers frames continuously (mod 16), holds the
// head frame until it is acknowledged, retries up to a bound with
// exponential holdoff, and abandons the rest of a reading whose frame
// proved undeliverable.  ArqReceiver CRC-checks, de-duplicates frames
// replayed after a lost ACK, and reassembles readings, discarding any
// reading with a hole instead of delivering corrupt bytes.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <span>

#include "core/overlay/frame.h"

namespace ms {

struct ArqConfig {
  unsigned max_retries = 4;         ///< retransmissions beyond the first try
  unsigned holdoff_base_slots = 1;  ///< holdoff = base·2^(attempt−1), capped
  unsigned holdoff_cap_slots = 8;
  /// Max extra holdoff slots added per NACK (the caller draws the
  /// actual jitter and passes it to on_nack); desynchronizes tags that
  /// share an interferer so they do not retry in lockstep.
  unsigned holdoff_jitter_slots = 0;
};

class ArqSender {
 public:
  struct Stats {
    std::size_t frames_loaded = 0;
    std::size_t transmissions = 0;    ///< every try, including retries
    std::size_t retransmissions = 0;
    std::size_t frames_delivered = 0; ///< ACKed
    std::size_t frames_dropped = 0;   ///< abandoned after max retries
    std::size_t readings_abandoned = 0;
  };

  explicit ArqSender(ArqConfig cfg = {}) : cfg_(cfg) {}

  /// Queue one reading; frames are cut to `max_payload_bytes` each and
  /// sequence-numbered continuously across readings.
  void load_reading(uint8_t tag_id, std::span<const uint8_t> reading,
                    std::size_t max_payload_bytes);

  /// Nothing queued or in flight.
  bool idle() const { return queue_.empty(); }

  /// Advance one slot.  Returns the frame to transmit this slot, or
  /// nullopt while idle or holding off.  Each returned frame must be
  /// answered with exactly one on_ack()/on_nack() before the next poll.
  std::optional<TagFrame> poll();

  /// The frame the next successful poll() would return (nullptr while
  /// idle) — lets a caller check slot capacity / energy before
  /// committing to a transmission.  Does not advance any state.
  const TagFrame* peek() const { return queue_.empty() ? nullptr
                                                       : &queue_.front(); }

  /// Head frame was acknowledged.
  void on_ack();

  /// Head frame failed (corrupted, or its ACK never arrived): schedule a
  /// retry with exponential holdoff plus `jitter_slots` extra (caller-
  /// drawn, bounded by config().holdoff_jitter_slots), or after
  /// max_retries drop it and abandon the rest of its reading.
  void on_nack(unsigned jitter_slots = 0);

  /// Brownout: the capacitor collapsed and the tag's RAM — queue, head
  /// frame, retry state — is gone.  Drops everything (counting the
  /// abandoned frames/readings) and clears any awaited result so the
  /// session can resume cleanly after recharge.
  void reset_after_brownout();

  /// Tries of the head frame so far (0 = untransmitted).
  unsigned attempts() const { return attempts_; }
  /// Slots remaining before the next retry.
  unsigned holdoff() const { return holdoff_; }
  /// Let one slot of holdoff elapse without polling — for slots where
  /// the tag could not have transmitted anyway (dark air, CCA busy,
  /// energy deferral) but time still passes.
  void tick_holdoff() {
    if (holdoff_ > 0) --holdoff_;
  }

  const Stats& stats() const { return stats_; }
  const ArqConfig& config() const { return cfg_; }

 private:
  void drop_head_reading();

  ArqConfig cfg_;
  std::deque<TagFrame> queue_;
  unsigned next_seq_ = 0;
  unsigned attempts_ = 0;
  unsigned holdoff_ = 0;
  bool awaiting_result_ = false;
  Stats stats_;
};

/// CRC-check, de-duplicate, and reassemble at the receiver.  A reading
/// with a missing frame (sender gave up) is discarded whole rather than
/// delivered with a hole.
class ArqReceiver {
 public:
  struct Result {
    bool crc_ok = false;     ///< frame parsed and CRC passed → send ACK
    bool duplicate = false;  ///< replay of the last accepted frame
    std::optional<Bytes> reading;  ///< completed reading, if any
  };

  /// Feed an already-parsed frame (e.g. straight from a codec decode).
  Result push(const TagFrame& frame);

  std::size_t readings_completed() const { return readings_completed_; }
  std::size_t readings_discarded() const { return readings_discarded_; }

 private:
  struct PerTag {
    int expected_seq = -1;  ///< −1: accept anything as the resync point
    Bytes partial;
    bool in_reading = false;
  };
  std::map<uint8_t, PerTag> tags_;
  std::size_t readings_completed_ = 0;
  std::size_t readings_discarded_ = 0;
};

}  // namespace ms
