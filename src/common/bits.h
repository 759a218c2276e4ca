// Bit- and byte-level utilities shared by every PHY implementation.
//
// A "bit vector" throughout the library is std::vector<uint8_t> holding one
// bit (0 or 1) per element, LSB-first within each source byte.  LSB-first
// matches the over-the-air order of 802.11, BLE, and 802.15.4.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ms {

using Bits = std::vector<uint8_t>;
using Bytes = std::vector<uint8_t>;

/// Unpack bytes into bits, LSB of each byte first (802.11/BLE/802.15.4 air order).
Bits bytes_to_bits_lsb(std::span<const uint8_t> bytes);

/// Pack bits (LSB-first per byte) back into bytes.  Requires size % 8 == 0.
Bytes bits_to_bytes_lsb(std::span<const uint8_t> bits);

/// Bit error rate between transmitted and received bit vectors.  Compares
/// the common prefix; any length mismatch counts the missing tail as errors.
double bit_error_rate(std::span<const uint8_t> sent,
                      std::span<const uint8_t> received);

/// Repeat every bit `factor` times (repetition coding used by tag spreading).
Bits repeat_bits(std::span<const uint8_t> bits, std::size_t factor);

/// Majority vote over consecutive groups of `factor` bits; ties decode as 1.
Bits majority_vote(std::span<const uint8_t> bits, std::size_t factor);

/// Parse "1011…" into a bit vector.  Throws ms::Error on other characters.
Bits bits_from_string(const std::string& s);

}  // namespace ms
