#include "phy/convolutional.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hamming.h"

namespace ms {
namespace {

TEST(Convolutional, EncodeDoublesLength) {
  Rng rng(1);
  const Bits data = rng.bits(100);
  EXPECT_EQ(conv_encode(data).size(), 200u);
}

TEST(Convolutional, AllZeroInputGivesAllZeroOutput) {
  const Bits zeros(50, 0);
  const Bits coded = conv_encode(zeros);
  for (uint8_t b : coded) EXPECT_EQ(b, 0);
}

TEST(Convolutional, CleanChannelRoundTrip) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Bits data = rng.bits(64);
    EXPECT_EQ(viterbi_decode(conv_encode(data)), data);
  }
}

TEST(Convolutional, CorrectsIsolatedBitErrors) {
  Rng rng(3);
  const Bits data = rng.bits(200);
  Bits coded = conv_encode(data);
  // Flip well-separated coded bits: free distance 10 corrects these.
  for (std::size_t pos = 10; pos + 40 < coded.size(); pos += 40)
    coded[pos] ^= 1;
  EXPECT_EQ(viterbi_decode(coded), data);
}

TEST(Convolutional, CorrectsBurstWithTailSeparation) {
  Rng rng(4);
  const Bits data = rng.bits(100);
  Bits coded = conv_encode(data);
  coded[60] ^= 1;
  coded[61] ^= 1;  // adjacent pair, still within free distance
  EXPECT_EQ(viterbi_decode(coded), data);
}

TEST(Convolutional, HighErrorRateFails) {
  // Sanity: the decoder is not magic; 25% coded-bit errors break it.
  Rng rng(5);
  const Bits data = rng.bits(200);
  Bits coded = conv_encode(data);
  for (std::size_t i = 0; i < coded.size(); i += 4) coded[i] ^= 1;
  const Bits decoded = viterbi_decode(coded);
  EXPECT_GT(hamming_distance(decoded, data), 0u);
}

TEST(Convolutional, EmptyInput) {
  EXPECT_TRUE(conv_encode(Bits{}).empty());
  EXPECT_TRUE(viterbi_decode(Bits{}).empty());
}

TEST(Convolutional, KnownGeneratorOutput) {
  // First input bit 1 from state 0 → outputs (g0, g1) = (1, 1).
  const Bits coded = conv_encode(Bits{1});
  EXPECT_EQ(coded, (Bits{1, 1}));
}

}  // namespace
}  // namespace ms
