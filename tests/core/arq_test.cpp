#include "core/overlay/arq.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace ms {
namespace {

Bytes make_reading(std::size_t n, uint8_t fill) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<uint8_t>(fill + i);
  return b;
}

TEST(ArqSender, DeliversMultiFrameReadingIntact) {
  ArqSender sender;
  ArqReceiver rx;
  const Bytes reading = make_reading(96, 1);
  sender.load_reading(3, reading, 31);
  std::vector<Bytes> delivered;
  while (!sender.idle()) {
    const auto frame = sender.poll();
    ASSERT_TRUE(frame.has_value()) << "clean channel must never hold off";
    const ArqReceiver::Result res = rx.push(*frame);
    EXPECT_TRUE(res.crc_ok);
    if (res.reading) delivered.push_back(*res.reading);
    sender.on_ack();
  }
  EXPECT_EQ(rx.readings_completed(), 1u);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], reading);
}

TEST(ArqSender, SequenceNumbersContinueAcrossReadings) {
  ArqSender sender;
  sender.load_reading(1, make_reading(40, 0), 16);   // 3 frames: seq 0,1,2
  sender.load_reading(1, make_reading(40, 9), 16);   // 3 frames: seq 3,4,5
  std::vector<unsigned> seqs;
  while (!sender.idle()) {
    seqs.push_back((*sender.poll()).sequence);
    sender.on_ack();
  }
  EXPECT_EQ(seqs, (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
}

TEST(ArqSender, NackBacksOffExponentially) {
  ArqConfig cfg;
  cfg.max_retries = 4;
  cfg.holdoff_base_slots = 1;
  cfg.holdoff_cap_slots = 8;
  ArqSender sender(cfg);
  sender.load_reading(1, make_reading(4, 0), 31);

  ASSERT_TRUE(sender.poll().has_value());
  sender.on_nack();
  EXPECT_EQ(sender.holdoff(), 1u);  // base·2^0
  EXPECT_FALSE(sender.poll().has_value());
  ASSERT_TRUE(sender.poll().has_value());
  sender.on_nack();
  EXPECT_EQ(sender.holdoff(), 2u);  // base·2^1
  EXPECT_FALSE(sender.poll().has_value());
  EXPECT_FALSE(sender.poll().has_value());
  ASSERT_TRUE(sender.poll().has_value());
  sender.on_nack();
  EXPECT_EQ(sender.holdoff(), 4u);  // base·2^2
}

TEST(ArqSender, AbandonsReadingAfterMaxRetriesButKeepsNext) {
  ArqConfig cfg;
  cfg.max_retries = 2;
  cfg.holdoff_base_slots = 0;  // no holdoff, keeps the test compact
  ArqSender sender(cfg);
  sender.load_reading(1, make_reading(60, 0), 31);  // 2 frames
  sender.load_reading(1, make_reading(8, 7), 31);   // 1 frame

  // First try + 2 retries all fail → head frame dropped, and the rest
  // of its reading with it.
  for (int tries = 0; tries < 3; ++tries) {
    ASSERT_TRUE(sender.poll().has_value());
    sender.on_nack();
  }
  EXPECT_EQ(sender.stats().frames_dropped, 2u);
  EXPECT_EQ(sender.stats().readings_abandoned, 1u);

  // The next reading is untouched and still deliverable.
  ArqReceiver rx;
  const auto frame = sender.poll();
  ASSERT_TRUE(frame.has_value());
  const auto res = rx.push(*frame);
  ASSERT_TRUE(res.reading.has_value());
  EXPECT_EQ(*res.reading, make_reading(8, 7));
  sender.on_ack();
  EXPECT_TRUE(sender.idle());
}

TEST(ArqReceiver, LostAckTriggersDuplicateNotDoubleDelivery) {
  ArqConfig cfg;
  cfg.holdoff_base_slots = 0;  // retry immediately, no backoff slots
  ArqSender sender(cfg);
  ArqReceiver rx;
  const Bytes reading = make_reading(50, 3);
  sender.load_reading(2, reading, 31);  // 2 frames

  auto frame = sender.poll();
  ASSERT_TRUE(rx.push(*frame).crc_ok);
  sender.on_nack();  // the ACK was lost — sender retries the same frame

  frame = sender.poll();
  ASSERT_TRUE(frame.has_value());
  const auto dup = rx.push(*frame);
  EXPECT_TRUE(dup.crc_ok);        // re-ACK so the sender can advance
  EXPECT_TRUE(dup.duplicate);
  EXPECT_FALSE(dup.reading.has_value());
  sender.on_ack();

  frame = sender.poll();
  const auto fin = rx.push(*frame);
  sender.on_ack();
  ASSERT_TRUE(fin.reading.has_value());
  EXPECT_EQ(*fin.reading, reading);  // duplicate bytes appended exactly once
  EXPECT_EQ(rx.readings_completed(), 1u);
}

TEST(ArqReceiver, GarbageBitsFailCrc) {
  // The receiver is fed only frames that parse with a good CRC, and
  // garbage bits never do.
  Rng rng(7);
  EXPECT_FALSE(TagFrame::from_bits(rng.bits(120)).has_value());
}

TEST(ArqReceiver, RoundTripThroughBits) {
  ArqSender sender;
  ArqReceiver rx;
  const Bytes reading = make_reading(20, 11);
  sender.load_reading(5, reading, 31);
  const auto frame = sender.poll();
  const std::optional<TagFrame> parsed = TagFrame::from_bits(frame->to_bits());
  ASSERT_TRUE(parsed.has_value());
  const auto res = rx.push(*parsed);
  EXPECT_TRUE(res.crc_ok);
  ASSERT_TRUE(res.reading.has_value());
  EXPECT_EQ(*res.reading, reading);
}

TEST(ArqReceiver, SenderGaveUpReceiverDiscardsHoledReading) {
  ArqConfig cfg;
  cfg.max_retries = 0;
  cfg.holdoff_base_slots = 0;
  ArqSender sender(cfg);
  ArqReceiver rx;
  sender.load_reading(1, make_reading(60, 0), 31);  // frames seq 0, 1
  sender.load_reading(1, make_reading(10, 50), 31);

  auto frame = sender.poll();
  EXPECT_TRUE(rx.push(*frame).crc_ok);
  sender.on_ack();
  frame = sender.poll();  // second frame of reading 1: lost on the air
  sender.on_nack();       // …and immediately abandoned (max_retries = 0)
  EXPECT_EQ(sender.stats().readings_abandoned, 1u);

  // Reading 2 arrives; the receiver must drop the holed reading 1
  // rather than splice reading 2 onto it.
  frame = sender.poll();
  const auto res = rx.push(*frame);
  sender.on_ack();
  ASSERT_TRUE(res.reading.has_value());
  EXPECT_EQ(*res.reading, make_reading(10, 50));
  EXPECT_EQ(rx.readings_discarded(), 1u);
  EXPECT_EQ(rx.readings_completed(), 1u);
}

TEST(ArqSender, PollWithoutResultIsAnError) {
  ArqSender sender;
  sender.load_reading(1, make_reading(4, 0), 31);
  ASSERT_TRUE(sender.poll().has_value());
  EXPECT_THROW(sender.poll(), Error);  // previous frame never answered
}

}  // namespace
}  // namespace ms
