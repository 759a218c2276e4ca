#include "core/overlay/arq.h"

#include <algorithm>

#include "common/error.h"

namespace ms {

void ArqSender::load_reading(uint8_t tag_id, std::span<const uint8_t> reading,
                             std::size_t max_payload_bytes) {
  MS_CHECK_MSG(max_payload_bytes >= 1, "frame budget below one payload byte");
  const std::size_t per_frame =
      std::min(max_payload_bytes, TagFrame::kMaxPayload);
  std::vector<TagFrame> frames =
      segment_reading(tag_id, reading, TagFrame::frame_bits(per_frame));
  for (TagFrame& f : frames) {
    f.sequence = static_cast<uint8_t>(next_seq_);
    next_seq_ = (next_seq_ + 1) & 0x0f;
    queue_.push_back(std::move(f));
    ++stats_.frames_loaded;
  }
}

std::optional<TagFrame> ArqSender::poll() {
  MS_CHECK_MSG(!awaiting_result_, "poll() before on_ack()/on_nack()");
  if (queue_.empty()) return std::nullopt;
  if (holdoff_ > 0) {
    --holdoff_;
    return std::nullopt;
  }
  ++attempts_;
  ++stats_.transmissions;
  if (attempts_ > 1) ++stats_.retransmissions;
  awaiting_result_ = true;
  return queue_.front();
}

void ArqSender::on_ack() {
  MS_CHECK_MSG(awaiting_result_, "on_ack() without a polled frame");
  awaiting_result_ = false;
  ++stats_.frames_delivered;
  queue_.pop_front();
  attempts_ = 0;
  holdoff_ = 0;
}

void ArqSender::on_nack(unsigned jitter_slots) {
  MS_CHECK_MSG(awaiting_result_, "on_nack() without a polled frame");
  MS_CHECK_MSG(jitter_slots <= cfg_.holdoff_jitter_slots,
               "holdoff jitter exceeds the configured bound");
  awaiting_result_ = false;
  if (attempts_ > cfg_.max_retries) {
    drop_head_reading();
    return;
  }
  // Exponential holdoff: back off before retrying so a parked interferer
  // or deep fade has time to clear.  The caller-drawn jitter rides on
  // top of the cap so synchronized tags spread out.
  const unsigned shift = attempts_ - 1;
  const unsigned raw = shift >= 16 ? cfg_.holdoff_cap_slots
                                   : cfg_.holdoff_base_slots << shift;
  holdoff_ = std::min(raw, cfg_.holdoff_cap_slots) + jitter_slots;
}

void ArqSender::reset_after_brownout() {
  awaiting_result_ = false;
  attempts_ = 0;
  holdoff_ = 0;
  // Count what the collapse destroyed: every queued frame, and one
  // abandoned reading per last-segment marker (load_reading only ever
  // queues whole readings, so the tail is a complete reading too).
  std::size_t readings = 0;
  for (const TagFrame& f : queue_) {
    ++stats_.frames_dropped;
    if (f.last_segment) ++readings;
  }
  if (!queue_.empty() && !queue_.back().last_segment) ++readings;
  stats_.readings_abandoned += readings;
  queue_.clear();
}

void ArqSender::drop_head_reading() {
  // The head frame is undeliverable; the rest of its reading would only
  // produce a reading with a hole, so abandon through the last segment.
  ++stats_.frames_dropped;
  bool last = queue_.front().last_segment;
  queue_.pop_front();
  while (!last && !queue_.empty()) {
    last = queue_.front().last_segment;
    queue_.pop_front();
    ++stats_.frames_dropped;
  }
  ++stats_.readings_abandoned;
  attempts_ = 0;
  holdoff_ = 0;
}

ArqReceiver::Result ArqReceiver::push(const TagFrame& frame) {
  PerTag& t = tags_[frame.tag_id];
  Result r;
  r.crc_ok = true;
  const int seq = frame.sequence;
  // Replay of the last accepted frame: its ACK was lost.  Re-ACK without
  // appending the payload twice.
  if (t.expected_seq >= 0 && seq == (t.expected_seq + 15) % 16) {
    r.duplicate = true;
    return r;
  }
  if (t.expected_seq >= 0 && seq != t.expected_seq) {
    // Stop-and-wait delivers in order, so a sequence jump means the
    // sender abandoned the rest of the previous reading; this frame
    // starts a fresh one.  Discard the holed partial instead of ever
    // delivering corrupt bytes.
    if (t.in_reading) ++readings_discarded_;
    t.partial.clear();
    t.in_reading = false;
  }
  t.expected_seq = (seq + 1) % 16;
  t.partial.insert(t.partial.end(), frame.payload.begin(),
                   frame.payload.end());
  if (frame.last_segment) {
    r.reading = std::move(t.partial);
    t.partial.clear();
    t.in_reading = false;
    ++readings_completed_;
  } else {
    t.in_reading = true;
  }
  return r;
}

}  // namespace ms
