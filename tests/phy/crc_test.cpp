#include "phy/crc.h"

#include <gtest/gtest.h>

#include "common/bits.h"

namespace ms {
namespace {

const Bytes kCheck = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};

TEST(Crc, Crc16CcittCheckValue) {
  // CRC-16/CCITT-FALSE check value for "123456789".
  EXPECT_EQ(crc16_ccitt(kCheck), 0x29b1);
}

TEST(Crc, Crc8CheckValue) {
  EXPECT_EQ(crc8(kCheck), 0xf4);
}

TEST(Crc, EmptyInputs) {
  EXPECT_EQ(crc16_ccitt(Bytes{}), 0xffff);
  EXPECT_EQ(crc8(Bytes{}), 0x00);
}

TEST(Crc, DetectsSingleBitError) {
  Bytes data = {0x01, 0x02, 0x03, 0x04};
  const auto c16 = crc16_ccitt(data);
  const auto c8 = crc8(data);
  data[2] ^= 0x10;
  EXPECT_NE(crc16_ccitt(data), c16);
  EXPECT_NE(crc8(data), c8);
}

}  // namespace
}  // namespace ms
