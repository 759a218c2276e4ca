// The two CRCs the simulator computes.
//
//   CRC-16/CCITT  — 802.11b PLCP header check
//   CRC-8         — tag frame check (core/overlay/frame.h)
//
// The paper's radios hand over raw PHY bits with the CRC off, so there
// is no 802.15.4 FCS, BLE CRC-24 or 802.11 CRC-32 here.  CRC-8 guards
// every tag frame, and the link layer checks one per transmitted slot,
// so it reads a 256-entry table built at compile time from the
// bit-serial loop.  The PLCP header check runs once per synthesized
// packet, where waveform synthesis dominates, so it stays bit-serial.
#pragma once

#include <cstdint>
#include <span>

namespace ms {

/// CRC-16/CCITT (poly 0x1021), MSB-first, init/xorout configurable.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init = 0xffff);

/// CRC-8 (poly 0x07, init 0) — simple integrity check for sensor payloads.
std::uint8_t crc8(std::span<const std::uint8_t> data);

}  // namespace ms
