// Property sweeps for the resilient link layer: framed + FEC-coded tag
// data must round-trip exactly under any burst within the interleaver's
// correction radius, and must be REJECTED (CRC failure), not silently
// corrupted, under bursts far beyond it — modulo the CRC-8 aliasing
// floor (≈1/256 per corrupted frame).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/overlay/arq.h"
#include "core/overlay/fec.h"
#include "core/overlay/frame.h"

namespace ms {
namespace {

constexpr std::size_t kRows = 7;

TagFrame random_frame(Rng& rng, std::size_t payload_bytes) {
  TagFrame f;
  f.tag_id = static_cast<uint8_t>(rng.uniform_int(16));
  f.sequence = static_cast<uint8_t>(rng.uniform_int(16));
  f.last_segment = rng.chance(0.5);
  f.payload = rng.bytes(payload_bytes);
  return f;
}

/// Flip `len` consecutive bits starting at `start` (wrapping clipped).
void flip_burst(Bits& bits, std::size_t start, std::size_t len) {
  for (std::size_t i = start; i < std::min(bits.size(), start + len); ++i)
    bits[i] ^= 1u;
}

TEST(LinkProperty, BurstWithinInterleaverRadiusAlwaysCorrected) {
  const TagFec fec{kRows};
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t payload = 1 + rng.uniform_int(TagFrame::kMaxPayload);
    const TagFrame frame = random_frame(rng, payload);
    const Bits raw = frame.to_bits();
    Bits coded = fec.encode(raw);
    // Any contiguous burst of ≤ `rows` bits lands ≤ 1 error in each
    // Hamming codeword after deinterleaving.
    const std::size_t len = 1 + rng.uniform_int(kRows);
    flip_burst(coded, rng.uniform_int(coded.size()), len);
    const Bits decoded = fec.decode(coded, raw.size());
    ASSERT_EQ(decoded, raw) << "trial " << trial;
    const auto parsed = TagFrame::from_bits(decoded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payload, frame.payload);
  }
}

TEST(LinkProperty, RepetitionExtendsTheCorrectionRadius) {
  const TagFec fec{kRows};
  constexpr std::size_t kRepeats = 3;
  Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t payload = 1 + rng.uniform_int(TagFrame::kMaxPayload);
    const TagFrame frame = random_frame(rng, payload);
    const Bits raw = frame.to_bits();
    Bits coded = repeat_bits(fec.encode(raw), kRepeats);
    // A burst of L repeated bits fully corrupts ≤ ⌈L/3⌉ coded bits; keep
    // that within the interleaver radius.
    const std::size_t len = 1 + rng.uniform_int(kRepeats * kRows - 2);
    flip_burst(coded, rng.uniform_int(coded.size()), len);
    const Bits voted = majority_vote(coded, kRepeats);
    const Bits decoded = fec.decode(voted, raw.size());
    ASSERT_EQ(decoded, raw) << "trial " << trial;
  }
}

TEST(LinkProperty, BurstBeyondRadiusRejectsRatherThanCorrupts) {
  const TagFec fec{kRows};
  Rng rng(303);
  int delivered_wrong = 0;
  constexpr int kTrials = 500;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t payload = 8 + rng.uniform_int(24);
    const TagFrame frame = random_frame(rng, payload);
    const Bits raw = frame.to_bits();
    Bits coded = fec.encode(raw);
    // A burst far beyond the correction radius: a third of the frame.
    const std::size_t len = coded.size() / 3;
    flip_burst(coded, rng.uniform_int(coded.size() - len), len);
    const auto parsed = TagFrame::from_bits(fec.decode(coded, raw.size()));
    if (!parsed.has_value()) continue;  // rejected: the desired outcome
    // Parsed frames must be the original — anything else slipped through
    // the CRC (8-bit CRCs alias ~1/256 of corrupted frames).
    if (parsed->payload != frame.payload || parsed->tag_id != frame.tag_id ||
        parsed->sequence != frame.sequence)
      ++delivered_wrong;
  }
  EXPECT_LE(delivered_wrong, kTrials / 50)  // ≤ 2%, the CRC-8 alias floor
      << "silent corruptions: " << delivered_wrong;
}

TEST(LinkProperty, ArqSessionNeverDeliversCorruptBytesUnderBursts) {
  // End-to-end: segment a reading, corrupt some frames on the air, and
  // check every delivered reading is byte-exact (readings may be lost,
  // never wrong), across many seeds.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const TagFec fec{kRows};
    ArqConfig acfg;
    acfg.holdoff_base_slots = 0;
    ArqSender sender(acfg);
    ArqReceiver rx;
    const Bytes reading = rng.bytes(96);
    sender.load_reading(1, reading, 31);
    std::size_t delivered = 0;
    std::size_t guard = 0;
    while (!sender.idle() && ++guard < 200) {
      const auto frame = sender.poll();
      if (!frame) continue;
      const Bits raw = frame->to_bits();
      Bits coded = fec.encode(raw);
      if (rng.chance(0.3)) {
        const std::size_t len = coded.size() / 4;
        flip_burst(coded, rng.uniform_int(coded.size()), len);
      }
      const std::optional<TagFrame> parsed =
          TagFrame::from_bits(fec.decode(coded, raw.size()));
      const ArqReceiver::Result res =
          parsed ? rx.push(*parsed) : ArqReceiver::Result{};
      if (res.reading) {
        ++delivered;
        EXPECT_EQ(*res.reading, reading) << "seed " << seed;
      }
      if (parsed)
        sender.on_ack();
      else
        sender.on_nack();
    }
    EXPECT_LE(delivered, 1u);
  }
}

}  // namespace
}  // namespace ms
