// Application-layer tag framing.
//
// The overlay channel moves raw bits; a deployed sensor needs framing on
// top: a tag identifier, a length, a sequence number for multi-packet
// readings, and an integrity check.  TagFrame packs a sensor payload
// into overlay tag bits and back, and FrameAssembler reassembles
// readings segmented across multiple excitation packets.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "common/bits.h"

namespace ms {

struct TagFrame {
  uint8_t tag_id = 0;       ///< which tag is talking (0..15)
  uint8_t sequence = 0;     ///< segment number (0..15)
  bool last_segment = true; ///< final segment of a reading
  Bytes payload;            ///< up to 31 bytes per frame

  /// Serialize: 4-bit tag id, 4-bit sequence, 1-bit last flag,
  /// 5-bit length, payload bytes, CRC-8 — all LSB-first.
  Bits to_bits() const;

  /// Parse and CRC-check a bit stream produced by to_bits().  Returns
  /// nullopt on bad length or CRC.  `bits` may carry trailing padding.
  static std::optional<TagFrame> from_bits(std::span<const uint8_t> bits);

  /// Total bits for a payload of n bytes.
  static std::size_t frame_bits(std::size_t payload_bytes);

  static constexpr std::size_t kMaxPayload = 31;
};

/// Split a long sensor reading into TagFrames that each fit
/// `max_frame_bits` of overlay capacity.
std::vector<TagFrame> segment_reading(uint8_t tag_id,
                                      std::span<const uint8_t> reading,
                                      std::size_t max_frame_bits);

/// Reassemble per-tag readings from frames arriving in order (frames
/// from different tags may interleave).
class FrameAssembler {
 public:
  /// Feed one decoded frame.  Returns the completed reading when this
  /// frame finishes one.
  std::optional<Bytes> push(const TagFrame& frame);

 private:
  struct Partial {
    Bytes data;
    uint8_t next_sequence = 0;
  };
  std::map<uint8_t, Partial> partial_;
};

}  // namespace ms
