#include "phy/crc.h"

#include <array>

namespace ms {

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}

namespace {

// CRC-8 of every one-byte message: an 8-bit register takes a whole input
// byte per step, so crc' = table[crc ^ byte] replaces the 8 shifts.
constexpr std::array<std::uint8_t, 256> kCrc8Table = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned v = 0; v < 256; ++v) {
    auto crc = static_cast<std::uint8_t>(v);
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<std::uint8_t>(crc << 1);
    t[v] = crc;
  }
  return t;
}();

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0;
  for (std::uint8_t byte : data) crc = kCrc8Table[crc ^ byte];
  return crc;
}

}  // namespace ms
