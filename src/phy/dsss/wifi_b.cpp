#include "phy/dsss/wifi_b.h"

#include <cmath>

#include "common/error.h"
#include "dsp/kernels/arena.h"
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

bool rate_from_signal_byte(uint8_t b, WifiBRate& r) {
  switch (b) {
    case 0x0a: r = WifiBRate::Dbpsk1M; return true;
    case 0x14: r = WifiBRate::Dqpsk2M; return true;
    case 0x37: r = WifiBRate::Cck5_5M; return true;
    case 0x6e: r = WifiBRate::Cck11M; return true;
    default: return false;
  }
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

Iq WifiBPhy::modulate_frame(std::span<const uint8_t> payload_bytes) const {
  const std::size_t preamble_bits =
      cfg_.short_preamble ? kShortPreambleBits : kPreambleBits;
  const uint8_t seed = cfg_.short_preamble ? kShortSeed : cfg_.scrambler_seed;

  Bits air = bits_from_string(
      std::string(preamble_bits - 16, cfg_.short_preamble ? '0' : '1'));
  const uint16_t sfd = cfg_.short_preamble ? kShortSfd : kLongSfd;
  for (int i = 15; i >= 0; --i) air.push_back((sfd >> i) & 1u);
  const Bits hdr = header_bits(payload_bytes.size());
  air.insert(air.end(), hdr.begin(), hdr.end());
  const Bits payload = bytes_to_bits_lsb(payload_bytes);
  air.insert(air.end(), payload.begin(), payload.end());

  const Bits scrambled = scramble_11b(air, seed);
  const std::span<const uint8_t> s(scrambled);
  Cf phase_ref(1.0f, 0.0f);
  Iq out = modulate_bits_1m(s.first(preamble_bits), phase_ref);
  // Short preamble sends the PLCP header at 2 Mbps DQPSK.
  WifiBConfig hdr_cfg = cfg_;
  hdr_cfg.rate = cfg_.short_preamble ? WifiBRate::Dqpsk2M : WifiBRate::Dbpsk1M;
  const Iq hdr_wave = WifiBPhy(hdr_cfg).modulate_symbols(
      s.subspan(preamble_bits, kHeaderBits), phase_ref);
  out.insert(out.end(), hdr_wave.begin(), hdr_wave.end());
  const Iq body =
      modulate_symbols(s.subspan(preamble_bits + kHeaderBits), phase_ref);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Iq WifiBPhy::modulate_payload(std::span<const uint8_t> payload_bits) const {
  const Bits scrambled = scramble_11b(payload_bits, cfg_.scrambler_seed);
  Cf phase_ref(1.0f, 0.0f);
  return modulate_symbols(scrambled, phase_ref);
}

Cf WifiBPhy::despread_symbol_1m(std::span<const Cf> iq,
                                std::size_t symbol_index) const {
  const std::size_t sps = 11 * cfg_.samples_per_chip;
  MS_CHECK(iq.size() >= (symbol_index + 1) * sps);
  Iq chips(11);
  collapse_chips(iq.subspan(symbol_index * sps, sps), cfg_.samples_per_chip,
                 chips);
  return barker_despread(chips);
}

Bits WifiBPhy::demodulate_air_bits(std::span<const Cf> iq, std::size_t n_bits,
                                   Cf init_ref) const {
  const unsigned bps = wifi_b_bits_per_symbol(cfg_.rate);
  const unsigned cps = wifi_b_chips_per_symbol(cfg_.rate);
  MS_CHECK(n_bits % bps == 0);
  const std::size_t n_sym = n_bits / bps;
  const std::size_t sps = samples_per_symbol();
  MS_CHECK_MSG(iq.size() >= n_sym * sps, "waveform shorter than requested bits");

  Bits out;
  out.reserve(n_bits);
  Cf prev = init_ref;
  // One arena scratch buffer holds every symbol's collapsed chips.
  kernels::SampleArena& arena = kernels::scratch_arena();
  kernels::SampleArena::Scope scope(arena);
  const std::span<Cf> chips = arena.alloc<Cf>(cps);
  for (std::size_t s = 0; s < n_sym; ++s) {
    collapse_chips(iq.subspan(s * sps, sps), cfg_.samples_per_chip, chips);
    switch (cfg_.rate) {
      case WifiBRate::Dbpsk1M: {
        const Cf sym = barker_despread(chips);
        const double d = std::arg(sym * std::conj(prev));
        out.push_back(std::abs(d) > M_PI / 2 ? 1 : 0);
        prev = sym;
        break;
      }
      case WifiBRate::Dqpsk2M: {
        const Cf sym = barker_despread(chips);
        uint8_t b0, b1;
        dqpsk_decide(std::arg(sym * std::conj(prev)), false, b0, b1);
        out.push_back(b0);
        out.push_back(b1);
        prev = sym;
        break;
      }
      case WifiBRate::Cck5_5M:
      case WifiBRate::Cck11M: {
        Cf rot;
        const Bits data =
            cck_demap(chips, cfg_.rate == WifiBRate::Cck11M, rot);
        uint8_t b0, b1;
        dqpsk_decide(std::arg(rot * std::conj(prev)), (s % 2) == 1, b0, b1);
        out.push_back(b0);
        out.push_back(b1);
        out.insert(out.end(), data.begin(), data.end());
        prev = rot;
        break;
      }
    }
  }
  return out;
}

Bits WifiBPhy::demodulate_payload(std::span<const Cf> iq,
                                  std::size_t n_bits) const {
  return descramble_11b(demodulate_air_bits(iq, n_bits), cfg_.scrambler_seed);
}

WifiBPhy::RxFrame WifiBPhy::demodulate_frame(std::span<const Cf> iq) const {
  RxFrame rx;
  const std::size_t preamble_bits =
      cfg_.short_preamble ? kShortPreambleBits : kPreambleBits;
  const uint8_t seed = cfg_.short_preamble ? kShortSeed : cfg_.scrambler_seed;

  // Preamble is always 1 Mbps DBPSK; the header is 2 Mbps DQPSK behind a
  // short preamble, 1 Mbps behind a long one.
  WifiBConfig pre_cfg = cfg_;
  pre_cfg.rate = WifiBRate::Dbpsk1M;
  const WifiBPhy pre_phy(pre_cfg);
  WifiBConfig hdr_cfg = cfg_;
  hdr_cfg.rate = cfg_.short_preamble ? WifiBRate::Dqpsk2M : WifiBRate::Dbpsk1M;
  const WifiBPhy hdr_phy(hdr_cfg);

  const std::size_t pre_samples = preamble_bits * pre_phy.samples_per_symbol();
  const std::size_t hdr_symbols =
      kHeaderBits / wifi_b_bits_per_symbol(hdr_cfg.rate);
  const std::size_t hdr_samples = hdr_symbols * hdr_phy.samples_per_symbol();
  if (iq.size() < pre_samples + hdr_samples) return rx;

  const Bits pre_air =
      pre_phy.demodulate_air_bits(iq.first(pre_samples), preamble_bits);
  const Cf pre_ref =
      pre_phy.despread_symbol_1m(iq.first(pre_samples), preamble_bits - 1);
  const Bits hdr_air = hdr_phy.demodulate_air_bits(
      iq.subspan(pre_samples, hdr_samples), kHeaderBits, pre_ref);

  Bits air = pre_air;
  air.insert(air.end(), hdr_air.begin(), hdr_air.end());
  const Bits hdr_clear = descramble_11b(air, seed);
  const Bytes hdr_bytes = bits_to_bytes_lsb(
      std::span<const uint8_t>(hdr_clear).subspan(preamble_bits, kHeaderBits));
  const uint16_t crc = crc16_ccitt(std::span<const uint8_t>(hdr_bytes).first(4), 0xffff);
  const uint16_t rx_crc =
      static_cast<uint16_t>(hdr_bytes[4] | (hdr_bytes[5] << 8));
  WifiBRate rate;
  if (crc != rx_crc || !rate_from_signal_byte(hdr_bytes[0], rate)) return rx;
  rx.header_ok = true;
  rx.rate = rate;
  const std::size_t payload_bytes = hdr_bytes[2] | (hdr_bytes[3] << 8);
  rx.length_us = static_cast<uint16_t>(payload_bytes);

  WifiBConfig body_cfg = cfg_;
  body_cfg.rate = rate;
  const WifiBPhy body_phy(body_cfg);
  const std::size_t n_bits = payload_bytes * 8;
  const std::size_t need = n_bits / wifi_b_bits_per_symbol(rate) *
                           body_phy.samples_per_symbol();
  const std::size_t frame_hdr_samples = pre_samples + hdr_samples;
  if (iq.size() < frame_hdr_samples + need || n_bits == 0) return rx;
  // Chain the differential reference: the body's first symbol is encoded
  // relative to the last header symbol's phase (header symbols are
  // Barker-spread at both rates, so the 1 Mbps despreader applies).
  const Cf last_hdr_ref = hdr_phy.despread_symbol_1m(
      iq.subspan(pre_samples, hdr_samples), hdr_symbols - 1);
  const Bits body_air = body_phy.demodulate_air_bits(
      iq.subspan(frame_hdr_samples, need), n_bits, last_hdr_ref);

  // The self-synchronizing descrambler for the body must be seeded with
  // the last 7 air bits of the header segment.
  uint8_t body_seed = 0;
  for (std::size_t i = 0; i < 7; ++i)
    body_seed = static_cast<uint8_t>((body_seed << 1) |
                                     hdr_air[hdr_air.size() - 7 + i]);
  const Bits body_clear = descramble_11b(body_air, body_seed);
  rx.payload = bits_to_bytes_lsb(body_clear);
  return rx;
}

Iq WifiBPhy::preamble_waveform(uint16_t payload_bytes) const {
  const std::size_t preamble_bits =
      cfg_.short_preamble ? kShortPreambleBits : kPreambleBits;
  const uint8_t seed = cfg_.short_preamble ? kShortSeed : cfg_.scrambler_seed;
  Bits air = bits_from_string(
      std::string(preamble_bits - 16, cfg_.short_preamble ? '0' : '1'));
  const uint16_t sfd = cfg_.short_preamble ? kShortSfd : kLongSfd;
  for (int i = 15; i >= 0; --i) air.push_back((sfd >> i) & 1u);
  const Bits hdr = header_bits(payload_bytes);
  air.insert(air.end(), hdr.begin(), hdr.end());
  const Bits scrambled = scramble_11b(air, seed);
  const std::span<const uint8_t> s(scrambled);
  Cf phase_ref(1.0f, 0.0f);
  Iq out = modulate_bits_1m(s.first(preamble_bits), phase_ref);
  WifiBConfig hdr_cfg = cfg_;
  hdr_cfg.rate = cfg_.short_preamble ? WifiBRate::Dqpsk2M : WifiBRate::Dbpsk1M;
  const Iq hdr_wave = WifiBPhy(hdr_cfg).modulate_symbols(
      s.subspan(preamble_bits, kHeaderBits), phase_ref);
  out.insert(out.end(), hdr_wave.begin(), hdr_wave.end());
  return out;
}

std::size_t WifiBPhy::preamble_header_samples() const {
  if (cfg_.short_preamble) {
    // 72 preamble symbols at 1 Mbps + 24 header symbols at 2 Mbps.
    return (kShortPreambleBits + kHeaderBits / 2) * 11 * cfg_.samples_per_chip;
  }
  return (kPreambleBits + kHeaderBits) * 11 * cfg_.samples_per_chip;
}

}  // namespace ms
