#include "phy/zigbee/zigbee.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "dsp/kernels/oqpsk_synth.h"

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
  Iq out(n_chips * spc + spc);
  kernels::oqpsk_synthesize(symbols, kPnTable, spc, out);
  return out;
}

const kernels::CmacBank& ZigbeePhy::candidate_bank() const {
  std::call_once(bank_built_, [this] {
    bank_.reset(16, samples_per_symbol() + cfg_.samples_per_chip);
    for (uint8_t sym = 0; sym < 16; ++sym) {
      const uint8_t s[1] = {sym};
      bank_.set_candidate(sym, modulate_symbols(s));
    }
  });
  return bank_;
}

std::vector<ZigbeePhy::SymbolDetect> ZigbeePhy::detect_symbols(
    std::span<const Cf> iq, std::size_t n_symbols) const {
  const std::size_t sps = samples_per_symbol();
  MS_CHECK(iq.size() >= n_symbols * sps);
  std::vector<SymbolDetect> out(n_symbols);
  // Every candidate has the same length, so the bank's shared
  // min(seg, length) window is each candidate's own window.
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

Iq ZigbeePhy::preamble_waveform() const {
  const std::vector<uint8_t> symbols(8, 0);
  return modulate_symbols(symbols);
}

}  // namespace ms
