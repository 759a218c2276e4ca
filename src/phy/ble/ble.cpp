#include "phy/ble/ble.h"

#include <cmath>

#include "common/error.h"
#include "dsp/fir.h"
#include "dsp/kernels/gfsk.h"
#include "phy/crc.h"
#include "phy/whitening.h"

namespace ms {

BlePhy::BlePhy(BleConfig cfg)
    : cfg_(cfg),
      gauss_taps_(design_gaussian(cfg.bt, cfg.samples_per_symbol)) {
  MS_CHECK(cfg_.samples_per_symbol >= 2);
  MS_CHECK(cfg_.channel_index < 40);
}

Iq BlePhy::modulate_bits(std::span<const uint8_t> air_bits) const {
  const unsigned sps = cfg_.samples_per_symbol;
  // NRZ impulses, Gaussian-shaped, integrated into phase.
  Samples nrz;
  nrz.reserve(air_bits.size() * sps);
  for (uint8_t b : air_bits)
    nrz.insert(nrz.end(), sps, b ? 1.0f : -1.0f);
  const Samples shaped = fir_filter(nrz, gauss_taps_);

  const double dphi =
      2.0 * M_PI * frequency_deviation_hz() / sample_rate_hz();
  Iq out(shaped.size());
  double phase = 0.0;
  for (std::size_t i = 0; i < shaped.size(); ++i) {
    phase += dphi * shaped[i];
    out[i] = Cf(static_cast<float>(std::cos(phase)),
                static_cast<float>(std::sin(phase)));
  }
  return out;
}

Bits BlePhy::preamble_bits() const {
  Bits bits = bytes_to_bits_lsb(std::array<uint8_t, 1>{0xaa});
  const std::array<uint8_t, 4> aa = {
      static_cast<uint8_t>(kBleAdvAccessAddress & 0xff),
      static_cast<uint8_t>((kBleAdvAccessAddress >> 8) & 0xff),
      static_cast<uint8_t>((kBleAdvAccessAddress >> 16) & 0xff),
      static_cast<uint8_t>((kBleAdvAccessAddress >> 24) & 0xff)};
  const Bits aa_bits = bytes_to_bits_lsb(aa);
  bits.insert(bits.end(), aa_bits.begin(), aa_bits.end());
  return bits;
}

Iq BlePhy::preamble_waveform() const { return modulate_bits(preamble_bits()); }

Iq BlePhy::modulate_frame(std::span<const uint8_t> payload) const {
  MS_CHECK_MSG(payload.size() <= 255, "PDU payload too long");
  // ADV_NONCONN_IND-style header: type 0x02, length = payload size.
  Bytes pdu = {0x02, static_cast<uint8_t>(payload.size())};
  pdu.insert(pdu.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc24_ble(pdu);
  pdu.push_back(static_cast<uint8_t>(crc >> 16));
  pdu.push_back(static_cast<uint8_t>((crc >> 8) & 0xff));
  pdu.push_back(static_cast<uint8_t>(crc & 0xff));

  Bits air = preamble_bits();
  const Bits white = ble_whiten(bytes_to_bits_lsb(pdu), cfg_.channel_index);
  air.insert(air.end(), white.begin(), white.end());
  return modulate_bits(air);
}

Iq BlePhy::modulate_data_frame(std::uint32_t access_address,
                               std::span<const uint8_t> payload,
                               std::uint32_t crc_init) const {
  MS_CHECK_MSG(payload.size() <= 251, "data PDU payload too long");
  Bytes pdu = {0x01, static_cast<uint8_t>(payload.size())};  // LLID=1
  pdu.insert(pdu.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc24_ble(pdu, crc_init);
  pdu.push_back(static_cast<uint8_t>(crc >> 16));
  pdu.push_back(static_cast<uint8_t>((crc >> 8) & 0xff));
  pdu.push_back(static_cast<uint8_t>(crc & 0xff));

  Bits air = bytes_to_bits_lsb(std::array<uint8_t, 1>{0xaa});
  const std::array<uint8_t, 4> aa = {
      static_cast<uint8_t>(access_address & 0xff),
      static_cast<uint8_t>((access_address >> 8) & 0xff),
      static_cast<uint8_t>((access_address >> 16) & 0xff),
      static_cast<uint8_t>((access_address >> 24) & 0xff)};
  const Bits aa_bits = bytes_to_bits_lsb(aa);
  air.insert(air.end(), aa_bits.begin(), aa_bits.end());
  const Bits white = ble_whiten(bytes_to_bits_lsb(pdu), cfg_.channel_index);
  air.insert(air.end(), white.begin(), white.end());
  return modulate_bits(air);
}

BlePhy::RxFrame BlePhy::demodulate_data_frame(std::span<const Cf> iq,
                                              std::size_t payload_bytes,
                                              std::uint32_t crc_init) const {
  RxFrame rx;
  const std::size_t pdu_bytes = 2 + payload_bytes + 3;
  const std::size_t n_bits = 40 + pdu_bytes * 8;
  if (iq.size() < n_bits * cfg_.samples_per_symbol) return rx;
  const Bits air = demodulate_bits(iq, n_bits);
  const Bits pdu_white(air.begin() + 40, air.end());
  const Bytes pdu = bits_to_bytes_lsb(ble_whiten(pdu_white, cfg_.channel_index));
  const std::uint32_t crc = crc24_ble(
      std::span<const uint8_t>(pdu).first(2 + payload_bytes), crc_init);
  const std::uint32_t rx_crc =
      (static_cast<std::uint32_t>(pdu[2 + payload_bytes]) << 16) |
      (static_cast<std::uint32_t>(pdu[3 + payload_bytes]) << 8) |
      pdu[4 + payload_bytes];
  rx.crc_ok = (crc == rx_crc);
  rx.payload.assign(pdu.begin() + 2, pdu.begin() + 2 + payload_bytes);
  return rx;
}

Samples BlePhy::symbol_frequencies(std::span<const Cf> iq,
                                   std::size_t n_symbols) const {
  Samples out(n_symbols, 0.0f);
  kernels::gfsk_symbol_frequencies(iq, sample_rate_hz(),
                                   cfg_.samples_per_symbol, out);
  return out;
}

Bits BlePhy::demodulate_bits(std::span<const Cf> iq, std::size_t n_bits) const {
  const Samples f = symbol_frequencies(iq, n_bits);
  Bits out(n_bits);
  for (std::size_t i = 0; i < n_bits; ++i) out[i] = f[i] > 0.0f ? 1 : 0;
  return out;
}

BlePhy::RxFrame BlePhy::demodulate_frame(std::span<const Cf> iq,
                                         std::size_t payload_bytes) const {
  RxFrame rx;
  const std::size_t pdu_bytes = 2 + payload_bytes + 3;  // header+payload+CRC
  const std::size_t n_bits = 40 + pdu_bytes * 8;
  if (iq.size() < n_bits * cfg_.samples_per_symbol) return rx;
  const Bits air = demodulate_bits(iq, n_bits);
  const Bits pdu_white(air.begin() + 40, air.end());
  const Bits pdu_bits = ble_whiten(pdu_white, cfg_.channel_index);
  const Bytes pdu = bits_to_bytes_lsb(pdu_bits);
  const std::uint32_t crc =
      crc24_ble(std::span<const uint8_t>(pdu).first(2 + payload_bytes));
  const std::uint32_t rx_crc =
      (static_cast<std::uint32_t>(pdu[2 + payload_bytes]) << 16) |
      (static_cast<std::uint32_t>(pdu[3 + payload_bytes]) << 8) |
      pdu[4 + payload_bytes];
  rx.crc_ok = (crc == rx_crc);
  rx.payload.assign(pdu.begin() + 2, pdu.begin() + 2 + payload_bytes);
  return rx;
}

}  // namespace ms
