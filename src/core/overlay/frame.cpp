#include "core/overlay/frame.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "phy/crc.h"

namespace ms {

namespace {
/// Write the low `n_bits` of `value` LSB-first at `out`; returns the end.
uint8_t* put_value(uint8_t* out, unsigned value, unsigned n_bits) {
  for (unsigned i = 0; i < n_bits; ++i) *out++ = (value >> i) & 1u;
  return out;
}
unsigned pop_value(std::span<const uint8_t> bits, std::size_t& pos,
                   unsigned n_bits) {
  unsigned v = 0;
  for (unsigned i = 0; i < n_bits; ++i)
    v |= static_cast<unsigned>(bits[pos++] & 1u) << i;
  return v;
}
/// CRC over the header nibble-fields packed into one byte pair, then the
/// payload.
uint8_t frame_crc(uint8_t tag_id, uint8_t sequence, bool last_segment,
                  std::span<const uint8_t> payload) {
  std::array<uint8_t, 2 + TagFrame::kMaxPayload> input{};
  input[0] = static_cast<uint8_t>(tag_id | (sequence << 4));
  input[1] = static_cast<uint8_t>((last_segment ? 0x20 : 0) | payload.size());
  std::copy(payload.begin(), payload.end(), input.begin() + 2);
  return crc8(std::span<const uint8_t>(input).first(2 + payload.size()));
}
}  // namespace

std::size_t TagFrame::frame_bits(std::size_t payload_bytes) {
  // 4 id + 4 seq + 1 last + 5 length + payload + 8 CRC.
  return 14 + payload_bytes * 8 + 8;
}

Bits TagFrame::to_bits() const {
  MS_CHECK(tag_id < 16);
  MS_CHECK(sequence < 16);
  MS_CHECK_MSG(payload.size() <= kMaxPayload, "frame payload too long");
  Bits out(frame_bits(payload.size()));
  uint8_t* o = put_value(out.data(), tag_id, 4);
  o = put_value(o, sequence, 4);
  o = put_value(o, last_segment ? 1 : 0, 1);
  o = put_value(o, static_cast<unsigned>(payload.size()), 5);
  for (uint8_t b : payload) o = put_value(o, b, 8);
  put_value(o, frame_crc(tag_id, sequence, last_segment, payload), 8);
  return out;
}

std::optional<TagFrame> TagFrame::from_bits(std::span<const uint8_t> bits) {
  if (bits.size() < frame_bits(0)) return std::nullopt;
  std::size_t pos = 0;
  TagFrame f;
  f.tag_id = static_cast<uint8_t>(pop_value(bits, pos, 4));
  f.sequence = static_cast<uint8_t>(pop_value(bits, pos, 4));
  f.last_segment = pop_value(bits, pos, 1) != 0;
  const unsigned len = pop_value(bits, pos, 5);
  if (len > kMaxPayload || bits.size() < frame_bits(len)) return std::nullopt;
  f.payload = bits_to_bytes_lsb(bits.subspan(pos, len * 8));
  pos += len * 8;
  const unsigned rx_crc = pop_value(bits, pos, 8);
  if (frame_crc(f.tag_id, f.sequence, f.last_segment, f.payload) != rx_crc)
    return std::nullopt;
  return f;
}

std::vector<TagFrame> segment_reading(uint8_t tag_id,
                                      std::span<const uint8_t> reading,
                                      std::size_t max_frame_bits) {
  MS_CHECK_MSG(max_frame_bits >= TagFrame::frame_bits(1),
               "frame budget below one payload byte");
  std::size_t per_frame = TagFrame::kMaxPayload;
  while (TagFrame::frame_bits(per_frame) > max_frame_bits) --per_frame;

  std::vector<TagFrame> frames;
  uint8_t seq = 0;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(per_frame, reading.size() - off);
    TagFrame f;
    f.tag_id = tag_id;
    f.sequence = seq++ & 0x0f;
    f.payload.assign(reading.begin() + off, reading.begin() + off + n);
    off += n;
    f.last_segment = off >= reading.size();
    frames.push_back(std::move(f));
  } while (off < reading.size());
  return frames;
}

std::optional<Bytes> FrameAssembler::push(const TagFrame& frame) {
  Partial& p = partial_[frame.tag_id];
  if (frame.sequence != p.next_sequence) {
    // Lost a segment: restart from this frame if it opens a reading.
    p = Partial{};
    if (frame.sequence != 0) return std::nullopt;
  }
  p.data.insert(p.data.end(), frame.payload.begin(), frame.payload.end());
  p.next_sequence = (frame.sequence + 1) & 0x0f;
  if (!frame.last_segment) return std::nullopt;
  Bytes out = std::move(p.data);
  partial_.erase(frame.tag_id);
  return out;
}

}  // namespace ms
