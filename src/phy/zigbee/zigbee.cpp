#include "phy/zigbee/zigbee.h"

#include <cmath>

#include "common/error.h"
#include "dsp/kernels/oqpsk_synth.h"
#include "phy/crc.h"

namespace ms {

namespace {

std::uint32_t rotl32(std::uint32_t v, unsigned k) {
  k %= 32;
  if (k == 0) return v;
  return (v << k) | (v >> (32 - k));
}

std::array<std::uint32_t, 16> build_pn_table() {
  // 802.15.4-2015 Table 12-1: symbol 0's chips packed LSB-first; symbols
  // 1..7 are 4-chip rotations; symbols 8..15 invert the odd-index chips.
  std::array<std::uint32_t, 16> t{};
  const std::uint32_t s0 = 0x744ac39b;
  for (unsigned k = 0; k < 8; ++k) t[k] = rotl32(s0, 4 * k);
  for (unsigned k = 0; k < 8; ++k) t[8 + k] = t[k] ^ 0xaaaaaaaau;
  return t;
}

const std::array<std::uint32_t, 16> kPnTable = build_pn_table();

}  // namespace

std::span<const std::uint32_t> zigbee_pn_table() { return kPnTable; }

ZigbeePhy::ZigbeePhy(ZigbeeConfig cfg) : cfg_(cfg) {
  MS_CHECK(cfg_.samples_per_chip >= 2 && cfg_.samples_per_chip % 2 == 0);
}

Iq ZigbeePhy::modulate_symbols(std::span<const uint8_t> symbols) const {
  const unsigned spc = cfg_.samples_per_chip;
  const std::size_t n_chips = symbols.size() * kZigbeeChipsPerSymbol;
  // Trailing half-chip for the last Q pulse.
  const std::size_t n_samples = n_chips * spc + spc;
  if (kernels::use_fast(cfg_.path)) {
    Iq out(n_samples);
    kernels::oqpsk_synthesize(symbols, kPnTable, spc, out);
    return out;
  }
  Samples i_branch(n_samples, 0.0f), q_branch(n_samples, 0.0f);

  // Half-sine pulse spanning two chip periods.
  Samples pulse(2 * spc);
  for (std::size_t k = 0; k < pulse.size(); ++k)
    pulse[k] = static_cast<float>(
        std::sin(M_PI * static_cast<double>(k) / static_cast<double>(pulse.size())));

  std::size_t chip_idx = 0;
  for (uint8_t sym : symbols) {
    MS_CHECK(sym < 16);
    const std::uint32_t pn = kPnTable[sym];
    for (unsigned c = 0; c < kZigbeeChipsPerSymbol; ++c, ++chip_idx) {
      const float v = (pn >> c) & 1u ? 1.0f : -1.0f;
      const bool is_i = (chip_idx % 2) == 0;
      // I pulses start on even chip boundaries, Q pulses half a chip
      // (one chip period Tc) later — the OQPSK offset.
      const std::size_t start = (chip_idx / 2) * 2 * spc + (is_i ? 0 : spc);
      Samples& branch = is_i ? i_branch : q_branch;
      for (std::size_t k = 0; k < pulse.size() && start + k < n_samples; ++k)
        branch[start + k] += v * pulse[k];
    }
  }

  Iq out(n_samples);
  const float norm = 1.0f / std::sqrt(2.0f);
  for (std::size_t k = 0; k < n_samples; ++k)
    out[k] = Cf(i_branch[k] * norm, q_branch[k] * norm);
  return out;
}

std::vector<uint8_t> ZigbeePhy::bytes_to_symbols(
    std::span<const uint8_t> bytes) {
  std::vector<uint8_t> out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(b & 0x0f);  // low nibble first per the standard
    out.push_back(b >> 4);
  }
  return out;
}

Bytes ZigbeePhy::symbols_to_bytes(std::span<const uint8_t> symbols) {
  MS_CHECK(symbols.size() % 2 == 0);
  Bytes out(symbols.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<uint8_t>((symbols[2 * i] & 0x0f) |
                                  (symbols[2 * i + 1] << 4));
  return out;
}

Iq ZigbeePhy::modulate_frame(std::span<const uint8_t> payload) const {
  MS_CHECK_MSG(payload.size() <= 125, "802.15.4 PSDU limit exceeded");
  Bytes frame(4, 0x00);  // 8-symbol preamble
  frame.push_back(0xa7);  // SFD
  frame.push_back(static_cast<uint8_t>(payload.size() + 2));  // PHR (incl FCS)
  frame.insert(frame.end(), payload.begin(), payload.end());
  const uint16_t fcs = crc16_154(payload);
  frame.push_back(static_cast<uint8_t>(fcs & 0xff));
  frame.push_back(static_cast<uint8_t>(fcs >> 8));
  return modulate_symbols(bytes_to_symbols(frame));
}

void ZigbeePhy::build_references() const {
  std::call_once(references_built_, [this] {
    bank_.reset(16, samples_per_symbol() + cfg_.samples_per_chip);
    for (uint8_t sym = 0; sym < 16; ++sym) {
      const uint8_t s[1] = {sym};
      ref_cache_[sym] = modulate_symbols(s);
      bank_.set_candidate(sym, ref_cache_[sym]);
    }
  });
}

const Iq& ZigbeePhy::reference_waveform(uint8_t symbol) const {
  MS_CHECK(symbol < 16);
  build_references();
  return ref_cache_[symbol];
}

const kernels::CmacBank& ZigbeePhy::candidate_bank() const {
  build_references();
  return bank_;
}

std::vector<ZigbeePhy::SymbolDetect> ZigbeePhy::detect_symbols(
    std::span<const Cf> iq, std::size_t n_symbols) const {
  const std::size_t sps = samples_per_symbol();
  MS_CHECK(iq.size() >= n_symbols * sps);
  std::vector<SymbolDetect> out(n_symbols);
  if (kernels::use_fast(cfg_.path)) {
    // Every candidate has the same length, so the bank's shared
    // min(seg, length) window matches the per-candidate min the scalar
    // loop takes.
    const kernels::CmacBank& bank = candidate_bank();
    for (std::size_t s = 0; s < n_symbols; ++s) {
      const std::size_t avail = std::min(iq.size() - s * sps,
                                         sps + cfg_.samples_per_chip);
      const auto best = bank.best_match(iq.subspan(s * sps, avail));
      out[s].symbol = static_cast<uint8_t>(best.index);
      out[s].corr = best.corr;
    }
    return out;
  }
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t avail = std::min(iq.size() - s * sps,
                                       sps + cfg_.samples_per_chip);
    const auto seg = iq.subspan(s * sps, avail);
    double best = -1.0;
    for (uint8_t cand = 0; cand < 16; ++cand) {
      const Iq& ref = reference_waveform(cand);
      Cf corr(0.0f, 0.0f);
      const std::size_t n = std::min(seg.size(), ref.size());
      for (std::size_t k = 0; k < n; ++k) corr += seg[k] * std::conj(ref[k]);
      const double mag = std::abs(corr);
      if (mag > best) {
        best = mag;
        out[s].symbol = cand;
        out[s].corr = corr;
      }
    }
  }
  return out;
}

std::vector<uint8_t> ZigbeePhy::demodulate_symbols(std::span<const Cf> iq,
                                                   std::size_t n_symbols) const {
  const auto det = detect_symbols(iq, n_symbols);
  std::vector<uint8_t> out(det.size());
  for (std::size_t i = 0; i < det.size(); ++i) out[i] = det[i].symbol;
  return out;
}

ZigbeePhy::RxFrame ZigbeePhy::demodulate_frame(std::span<const Cf> iq,
                                               std::size_t payload_bytes) const {
  RxFrame rx;
  const std::size_t n_symbols = (6 + payload_bytes + 2) * 2;
  if (iq.size() < n_symbols * samples_per_symbol()) return rx;
  const std::vector<uint8_t> symbols = demodulate_symbols(iq, n_symbols);
  const Bytes bytes = symbols_to_bytes(symbols);
  // bytes: [0..3] preamble, [4] SFD, [5] PHR, then payload + FCS.
  rx.payload.assign(bytes.begin() + 6, bytes.begin() + 6 + payload_bytes);
  const uint16_t fcs = crc16_154(rx.payload);
  const uint16_t rx_fcs = static_cast<uint16_t>(
      bytes[6 + payload_bytes] | (bytes[7 + payload_bytes] << 8));
  rx.crc_ok = (fcs == rx_fcs);
  return rx;
}

Iq ZigbeePhy::preamble_waveform() const {
  const std::vector<uint8_t> symbols(8, 0);
  return modulate_symbols(symbols);
}

}  // namespace ms
