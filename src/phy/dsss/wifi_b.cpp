#include "phy/dsss/wifi_b.h"

#include <cmath>

#include "common/error.h"
#include "phy/crc.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"
#include "phy/scrambler.h"

namespace ms {

namespace {

Cf expj(double phi) {
  return Cf(static_cast<float>(std::cos(phi)), static_cast<float>(std::sin(phi)));
}

uint8_t rate_signal_byte(WifiBRate r) {
  switch (r) {
    case WifiBRate::Dbpsk1M: return 0x0a;
    case WifiBRate::Dqpsk2M: return 0x14;
    case WifiBRate::Cck5_5M: return 0x37;
    case WifiBRate::Cck11M: return 0x6e;
  }
  MS_CHECK_MSG(false, "unknown rate");
}

constexpr std::size_t kPreambleBits = 144;       // 128 sync + 16 SFD
constexpr std::size_t kShortPreambleBits = 72;   // 56 sync + 16 SFD
constexpr std::size_t kHeaderBits = 48;
constexpr uint16_t kLongSfd = 0xf3a0;
constexpr uint16_t kShortSfd = 0x05cf;  // time-reversed long SFD
constexpr uint8_t kShortSeed = 0x1b;

}  // namespace

void collapse_chips(std::span<const Cf> iq, unsigned spc,
                    std::span<Cf> chips) {
  MS_CHECK(iq.size() >= chips.size() * spc);
  for (std::size_t c = 0; c < chips.size(); ++c) {
    Cf acc(0.0f, 0.0f);
    for (unsigned s = 0; s < spc; ++s) acc += iq[c * spc + s];
    chips[c] = acc / static_cast<float>(spc);
  }
}

unsigned wifi_b_bits_per_symbol(WifiBRate rate) {
  switch (rate) {
    case WifiBRate::Dbpsk1M: return 1;
    case WifiBRate::Dqpsk2M: return 2;
    case WifiBRate::Cck5_5M: return 4;
    case WifiBRate::Cck11M: return 8;
  }
  MS_CHECK_MSG(false, "unknown rate");
}

unsigned wifi_b_chips_per_symbol(WifiBRate rate) {
  switch (rate) {
    case WifiBRate::Dbpsk1M:
    case WifiBRate::Dqpsk2M:
      return 11;
    case WifiBRate::Cck5_5M:
    case WifiBRate::Cck11M:
      return 8;
  }
  MS_CHECK_MSG(false, "unknown rate");
}

WifiBPhy::WifiBPhy(WifiBConfig cfg) : cfg_(cfg) {
  MS_CHECK(cfg_.samples_per_chip >= 1 && cfg_.samples_per_chip <= 16);
}

Bits WifiBPhy::header_bits(std::size_t payload_bytes) const {
  // PLCP header: SIGNAL, SERVICE, LENGTH, CRC-16.  Deviation from the
  // standard for simulation convenience: LENGTH carries the payload byte
  // count directly instead of microseconds (avoids the 11 Mbps
  // length-extension ambiguity without changing envelope structure).
  MS_CHECK(payload_bytes <= 0xffff);
  Bytes hdr = {rate_signal_byte(cfg_.rate), 0x00,
               static_cast<uint8_t>(payload_bytes & 0xff),
               static_cast<uint8_t>(payload_bytes >> 8)};
  const uint16_t crc = crc16_ccitt(hdr, 0xffff);
  hdr.push_back(static_cast<uint8_t>(crc & 0xff));
  hdr.push_back(static_cast<uint8_t>(crc >> 8));
  return bytes_to_bits_lsb(hdr);
}

Iq WifiBPhy::modulate_bits_1m(std::span<const uint8_t> scrambled,
                              Cf& phase_ref) const {
  Iq out;
  out.reserve(scrambled.size() * 11 * cfg_.samples_per_chip);
  for (uint8_t bit : scrambled) {
    phase_ref *= expj(bit ? M_PI : 0.0);
    const Iq chips = barker_spread(phase_ref);
    for (const Cf& c : chips)
      out.insert(out.end(), cfg_.samples_per_chip, c);
  }
  return out;
}

Iq WifiBPhy::modulate_symbols(std::span<const uint8_t> scrambled,
                              Cf& phase_ref) const {
  const unsigned bps = wifi_b_bits_per_symbol(cfg_.rate);
  MS_CHECK(scrambled.size() % bps == 0);
  Iq out;
  out.reserve(scrambled.size() / bps * wifi_b_chips_per_symbol(cfg_.rate) *
              cfg_.samples_per_chip);
  std::size_t sym_idx = 0;
  for (std::size_t i = 0; i < scrambled.size(); i += bps, ++sym_idx) {
    Iq chips;
    switch (cfg_.rate) {
      case WifiBRate::Dbpsk1M:
        phase_ref *= expj(scrambled[i] ? M_PI : 0.0);
        chips = barker_spread(phase_ref);
        break;
      case WifiBRate::Dqpsk2M:
        phase_ref *= expj(dqpsk_increment(scrambled[i], scrambled[i + 1],
                                          /*odd_symbol=*/false));
        chips = barker_spread(phase_ref);
        break;
      case WifiBRate::Cck5_5M:
      case WifiBRate::Cck11M: {
        const bool odd = (sym_idx % 2) == 1;
        phase_ref *= expj(dqpsk_increment(scrambled[i], scrambled[i + 1], odd));
        double phi2, phi3, phi4;
        cck_data_phases(scrambled.subspan(i + 2),
                        cfg_.rate == WifiBRate::Cck11M, phi2, phi3, phi4);
        chips = cck_codeword(0.0, phi2, phi3, phi4);
        for (Cf& c : chips) c *= phase_ref;
        break;
      }
    }
    for (const Cf& c : chips)
      out.insert(out.end(), cfg_.samples_per_chip, c);
  }
  return out;
}

Bits WifiBPhy::scrambled_frame_bits(
    std::size_t payload_bytes, std::span<const uint8_t> payload_bits) const {
  const std::size_t preamble_bits =
      cfg_.short_preamble ? kShortPreambleBits : kPreambleBits;
  Bits air = bits_from_string(
      std::string(preamble_bits - 16, cfg_.short_preamble ? '0' : '1'));
  const uint16_t sfd = cfg_.short_preamble ? kShortSfd : kLongSfd;
  for (int i = 15; i >= 0; --i) air.push_back((sfd >> i) & 1u);
  const Bits hdr = header_bits(payload_bytes);
  air.insert(air.end(), hdr.begin(), hdr.end());
  air.insert(air.end(), payload_bits.begin(), payload_bits.end());
  return scramble_11b(air,
                      cfg_.short_preamble ? kShortSeed : cfg_.scrambler_seed);
}

Iq WifiBPhy::modulate_air(std::span<const uint8_t> scrambled) const {
  const std::size_t preamble_bits =
      cfg_.short_preamble ? kShortPreambleBits : kPreambleBits;
  Cf phase_ref(1.0f, 0.0f);
  Iq out = modulate_bits_1m(scrambled.first(preamble_bits), phase_ref);
  // Short preamble sends the PLCP header at 2 Mbps DQPSK.
  WifiBConfig hdr_cfg = cfg_;
  hdr_cfg.rate = cfg_.short_preamble ? WifiBRate::Dqpsk2M : WifiBRate::Dbpsk1M;
  const Iq hdr_wave = WifiBPhy(hdr_cfg).modulate_symbols(
      scrambled.subspan(preamble_bits, kHeaderBits), phase_ref);
  out.insert(out.end(), hdr_wave.begin(), hdr_wave.end());
  const Iq body =
      modulate_symbols(scrambled.subspan(preamble_bits + kHeaderBits),
                       phase_ref);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Iq WifiBPhy::modulate_frame(std::span<const uint8_t> payload_bytes) const {
  return modulate_air(scrambled_frame_bits(payload_bytes.size(),
                                           bytes_to_bits_lsb(payload_bytes)));
}

Iq WifiBPhy::modulate_payload(std::span<const uint8_t> payload_bits) const {
  const Bits scrambled = scramble_11b(payload_bits, cfg_.scrambler_seed);
  Cf phase_ref(1.0f, 0.0f);
  return modulate_symbols(scrambled, phase_ref);
}

Iq WifiBPhy::preamble_waveform(uint16_t payload_bytes) const {
  return modulate_air(scrambled_frame_bits(payload_bytes, {}));
}

}  // namespace ms
