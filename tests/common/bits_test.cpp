#include "common/bits.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "hamming.h"

namespace ms {
namespace {

TEST(Bits, BytesToBitsLsbRoundTrip) {
  const Bytes bytes = {0x00, 0xff, 0xa5, 0x3c};
  const Bits bits = bytes_to_bits_lsb(bytes);
  ASSERT_EQ(bits.size(), 32u);
  EXPECT_EQ(bits_to_bytes_lsb(bits), bytes);
}

TEST(Bits, LsbOrderIsLsbFirst) {
  const Bits bits = bytes_to_bits_lsb(std::array<uint8_t, 1>{0x01});
  EXPECT_EQ(bits[0], 1);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bits, PackRequiresByteMultiple) {
  EXPECT_THROW(bits_to_bytes_lsb(Bits{1, 0, 1}), Error);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance(Bits{1, 0, 1, 1}, Bits{1, 1, 1, 0}), 2u);
  EXPECT_EQ(hamming_distance(Bits{}, Bits{}), 0u);
}

TEST(Bits, HammingDistanceSizeMismatchThrows) {
  EXPECT_THROW(hamming_distance(Bits{1}, Bits{1, 0}), Error);
}

TEST(Bits, BitErrorRateExact) {
  EXPECT_DOUBLE_EQ(bit_error_rate(Bits{1, 1, 1, 1}, Bits{1, 1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(bit_error_rate(Bits{1, 1, 1, 1}, Bits{0, 0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(bit_error_rate(Bits{1, 0, 1, 0}, Bits{1, 0, 0, 0}), 0.25);
}

TEST(Bits, BitErrorRateCountsMissingTailAsErrors) {
  EXPECT_DOUBLE_EQ(bit_error_rate(Bits{1, 1, 1, 1}, Bits{1, 1}), 0.5);
}

TEST(Bits, BitErrorRateEmptySentIsZero) {
  EXPECT_DOUBLE_EQ(bit_error_rate(Bits{}, Bits{1, 0}), 0.0);
}

TEST(Bits, RepeatBits) {
  EXPECT_EQ(repeat_bits(Bits{1, 0}, 3), (Bits{1, 1, 1, 0, 0, 0}));
}

TEST(Bits, MajorityVoteInvertsRepeat) {
  const Bits data = {1, 0, 0, 1, 1, 0};
  for (std::size_t factor : {1u, 3u, 5u}) {
    EXPECT_EQ(majority_vote(repeat_bits(data, factor), factor), data)
        << "factor " << factor;
  }
}

TEST(Bits, MajorityVoteSurvivesMinorityErrors) {
  Bits coded = repeat_bits(Bits{1, 0}, 5);
  coded[0] = 0;  // 1 of 5 flipped
  coded[6] = 1;
  EXPECT_EQ(majority_vote(coded, 5), (Bits{1, 0}));
}

TEST(Bits, MajorityVoteTieDecodesAsOne) {
  EXPECT_EQ(majority_vote(Bits{1, 0, 1, 0}, 4), (Bits{1}));
}

TEST(Bits, StringRoundTrip) {
  EXPECT_EQ(bits_from_string("1011001"), (Bits{1, 0, 1, 1, 0, 0, 1}));
  EXPECT_THROW(bits_from_string("10x"), Error);
}

}  // namespace
}  // namespace ms
