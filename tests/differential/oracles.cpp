#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>

#include "common/error.h"
#include "core/ident/templates.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/mixer.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"
#include "phy/ofdm/subcarriers.h"
#include "phy/scrambler.h"

namespace ms::oracle {

Zigbee::Zigbee(ZigbeeConfig cfg) : cfg_(cfg) {
  MS_CHECK(cfg_.samples_per_chip >= 2 && cfg_.samples_per_chip % 2 == 0);
  for (uint8_t sym = 0; sym < 16; ++sym) {
    const uint8_t s[1] = {sym};
    refs_[sym] = modulate_symbols(s);
  }
}

Iq Zigbee::modulate_symbols(std::span<const uint8_t> symbols) const {
  const unsigned spc = cfg_.samples_per_chip;
  const std::size_t n_chips = symbols.size() * kZigbeeChipsPerSymbol;
  // Trailing half-chip for the last Q pulse.
  const std::size_t n_samples = n_chips * spc + spc;
  Samples i_branch(n_samples, 0.0f), q_branch(n_samples, 0.0f);

  // Half-sine pulse spanning two chip periods.
  Samples pulse(2 * spc);
  for (std::size_t k = 0; k < pulse.size(); ++k)
    pulse[k] = static_cast<float>(
        std::sin(M_PI * static_cast<double>(k) / static_cast<double>(pulse.size())));

  const std::span<const std::uint32_t> pn_table = zigbee_pn_table();
  std::size_t chip_idx = 0;
  for (uint8_t sym : symbols) {
    MS_CHECK(sym < 16);
    const std::uint32_t pn = pn_table[sym];
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

std::vector<ZigbeePhy::SymbolDetect> Zigbee::detect_symbols(
    std::span<const Cf> iq, std::size_t n_symbols) const {
  const std::size_t sps = kZigbeeChipsPerSymbol * cfg_.samples_per_chip;
  MS_CHECK(iq.size() >= n_symbols * sps);
  std::vector<ZigbeePhy::SymbolDetect> out(n_symbols);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t avail = std::min(iq.size() - s * sps,
                                       sps + cfg_.samples_per_chip);
    const auto seg = iq.subspan(s * sps, avail);
    double best = -1.0;
    for (uint8_t cand = 0; cand < 16; ++cand) {
      const Iq& ref = refs_[cand];
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

Bits cck_demap(std::span<const Cf> chips, bool rate11, Cf& rot) {
  MS_CHECK(chips.size() == kCckChips);
  const unsigned n_codewords = rate11 ? 64 : 4;
  double best = -std::numeric_limits<double>::infinity();
  Bits best_bits;
  Cf best_rot(1.0f, 0.0f);
  Bits bits(rate11 ? 6 : 2);
  for (unsigned code = 0; code < n_codewords; ++code) {
    for (std::size_t b = 0; b < bits.size(); ++b)
      bits[b] = static_cast<uint8_t>((code >> (bits.size() - 1 - b)) & 1u);
    double phi2, phi3, phi4;
    cck_data_phases(bits, rate11, phi2, phi3, phi4);
    const Iq cw = cck_codeword(0.0, phi2, phi3, phi4);
    // Coherent correlation; |corr| is φ1-invariant, arg(corr) recovers φ1.
    Cf corr(0.0f, 0.0f);
    for (std::size_t i = 0; i < kCckChips; ++i)
      corr += chips[i] * std::conj(cw[i]);
    const double mag = std::abs(corr);
    if (mag > best) {
      best = mag;
      best_bits = bits;
      best_rot = corr / static_cast<float>(mag == 0.0 ? 1.0 : mag);
    }
  }
  rot = best_rot;
  return best_bits;
}

Iq collapse_chips(std::span<const Cf> sym_iq, unsigned spc, unsigned cps) {
  // Average each chip's samples back into one complex chip value.
  Iq chips(cps);
  for (std::size_t c = 0; c < cps; ++c) {
    Cf acc(0.0f, 0.0f);
    for (unsigned k = 0; k < spc; ++k) acc += sym_iq[c * spc + k];
    chips[c] = acc / static_cast<float>(spc);
  }
  return chips;
}

WifiB::WifiB(WifiBConfig cfg) : cfg_(cfg) {}

Bits WifiB::demodulate_air_bits(std::span<const Cf> iq, std::size_t n_bits,
                                Cf init_ref) const {
  const unsigned bps = wifi_b_bits_per_symbol(cfg_.rate);
  const unsigned cps = wifi_b_chips_per_symbol(cfg_.rate);
  const unsigned spc = cfg_.samples_per_chip;
  MS_CHECK(n_bits % bps == 0);
  const std::size_t n_sym = n_bits / bps;
  const std::size_t sps = cps * spc;
  MS_CHECK_MSG(iq.size() >= n_sym * sps, "waveform shorter than requested bits");

  Bits out;
  out.reserve(n_bits);
  Cf prev = init_ref;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const Iq chips = collapse_chips(iq.subspan(s * sps, sps), spc, cps);
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
        const Bits data = cck_demap(chips, cfg_.rate == WifiBRate::Cck11M, rot);
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

Ble::Ble(BleConfig cfg) : cfg_(cfg) {}

Samples Ble::symbol_frequencies(std::span<const Cf> iq,
                                std::size_t n_symbols) const {
  const unsigned sps = cfg_.samples_per_symbol;
  MS_CHECK(iq.size() >= n_symbols * sps);
  // BlePhy::sample_rate_hz(), the same expression.
  const Samples freq = discriminate(iq, 1e6 * cfg_.samples_per_symbol);
  Samples out(n_symbols, 0.0f);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    // Average the middle half of each symbol to dodge ISI at edges.
    const std::size_t lo = s * sps + sps / 4;
    const std::size_t hi = s * sps + (3 * sps) / 4;
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = lo; i < hi && i < freq.size(); ++i, ++n) acc += freq[i];
    out[s] = n ? static_cast<float>(acc / static_cast<double>(n)) : 0.0f;
  }
  return out;
}

Bits Ble::demodulate_bits(std::span<const Cf> iq, std::size_t n_bits) const {
  const Samples f = symbol_frequencies(iq, n_bits);
  Bits out(n_bits);
  for (std::size_t i = 0; i < n_bits; ++i) out[i] = f[i] > 0.0f ? 1 : 0;
  return out;
}

namespace {

/// Destination index of coded bit k after both 802.11 permutations.
std::size_t interleave_index(std::size_t k, unsigned n_cbps, unsigned n_bpsc) {
  const unsigned s = std::max(n_bpsc / 2, 1u);
  // First permutation: write row-wise into 16 columns, read column-wise.
  const std::size_t i = (n_cbps / 16) * (k % 16) + (k / 16);
  // Second permutation: rotate within groups of s bits.
  const std::size_t j =
      s * (i / s) + (i + n_cbps - (16 * i / n_cbps)) % s;
  return j;
}

/// Build one time-domain OFDM symbol (CP + 64) from 48 data points.
Iq ofdm_symbol(std::span<const Cf> data_points, std::size_t symbol_index) {
  MS_CHECK(data_points.size() == kOfdmDataCarriers);
  Iq freq(kOfdmFftSize, Cf(0.0f, 0.0f));
  const auto data_idx = ofdm_data_indices();
  for (std::size_t i = 0; i < kOfdmDataCarriers; ++i)
    freq[ofdm_bin(data_idx[i])] = data_points[i];
  const auto pilot_idx = ofdm_pilot_indices();
  const auto pilot_val = ofdm_pilot_values();
  const float pol = ofdm_pilot_polarity(symbol_index);
  for (std::size_t i = 0; i < kOfdmPilotCarriers; ++i)
    freq[ofdm_bin(pilot_idx[i])] = Cf(pilot_val[i] * pol, 0.0f);
  Iq t = ifft(freq);
  // Normalize to unit mean power over 52 active carriers.
  const float scale = static_cast<float>(kOfdmFftSize) / std::sqrt(52.0f);
  for (Cf& v : t) v *= scale;
  Iq out;
  out.reserve(kOfdmSymbolLen);
  out.insert(out.end(), t.end() - kOfdmCpLen, t.end());  // cyclic prefix
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

/// FFT of one received symbol (skipping the CP), returning 64 bins.
Iq ofdm_demod_bins(std::span<const Cf> symbol) {
  MS_CHECK(symbol.size() == kOfdmSymbolLen);
  Iq t(symbol.begin() + kOfdmCpLen, symbol.end());
  fft_inplace(t);
  const float scale = std::sqrt(52.0f) / static_cast<float>(kOfdmFftSize);
  for (Cf& v : t) v *= scale;
  return t;
}

}  // namespace

Bits interleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                    unsigned n_bpsc) {
  MS_CHECK(n_cbps >= 16 && n_cbps % 16 == 0);
  MS_CHECK(bits.size() % n_cbps == 0);
  Bits out(bits.size());
  for (std::size_t sym = 0; sym < bits.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k)
      out[base + interleave_index(k, n_cbps, n_bpsc)] = bits[base + k];
  }
  return out;
}

Bits deinterleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                      unsigned n_bpsc) {
  MS_CHECK(n_cbps >= 16 && n_cbps % 16 == 0);
  MS_CHECK(bits.size() % n_cbps == 0);
  Bits out(bits.size());
  for (std::size_t sym = 0; sym < bits.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k)
      out[base + k] = bits[base + interleave_index(k, n_cbps, n_bpsc)];
  }
  return out;
}

WifiN::WifiN(WifiNConfig cfg) : cfg_(cfg) {}

Iq WifiN::modulate_coded_symbols(std::span<const uint8_t> coded_bits,
                                 std::size_t first_symbol_index) const {
  const unsigned ncbps = wifi_n_coded_bits_per_symbol(cfg_.modulation);
  MS_CHECK(coded_bits.size() % ncbps == 0);
  const std::size_t n_sym = coded_bits.size() / ncbps;
  Iq out;
  out.reserve(n_sym * kOfdmSymbolLen);
  for (std::size_t s = 0; s < n_sym; ++s) {
    const Iq points = constellation_map(coded_bits.subspan(s * ncbps, ncbps),
                                        cfg_.modulation);
    const Iq sym = ofdm_symbol(points, first_symbol_index + s);
    out.insert(out.end(), sym.begin(), sym.end());
  }
  return out;
}

Bits WifiN::demodulate_symbol_bits(std::span<const Cf> iq,
                                   std::size_t n_symbols,
                                   std::span<const Cf> channel,
                                   std::size_t first_symbol_index) const {
  MS_CHECK(iq.size() >= n_symbols * kOfdmSymbolLen);
  const auto data_idx = ofdm_data_indices();
  Bits out;
  out.reserve(n_symbols * wifi_n_coded_bits_per_symbol(cfg_.modulation));
  for (std::size_t s = 0; s < n_symbols; ++s) {
    Iq bins = ofdm_demod_bins(iq.subspan(s * kOfdmSymbolLen, kOfdmSymbolLen));
    if (!channel.empty()) {
      MS_CHECK(channel.size() == kOfdmFftSize);
      for (std::size_t b = 0; b < kOfdmFftSize; ++b) {
        const float mag2 = std::norm(channel[b]);
        if (mag2 > 1e-12f) bins[b] /= channel[b];
      }
    }
    // Common phase error correction from the pilots.
    const auto pilot_idx = ofdm_pilot_indices();
    const auto pilot_val = ofdm_pilot_values();
    const float pol = ofdm_pilot_polarity(first_symbol_index + s);
    Cf cpe(0.0f, 0.0f);
    for (std::size_t i = 0; i < kOfdmPilotCarriers; ++i)
      cpe += bins[ofdm_bin(pilot_idx[i])] * (pilot_val[i] * pol);
    const float mag = std::abs(cpe);
    const Cf derot = mag > 1e-9f ? std::conj(cpe) / mag : Cf(1.0f, 0.0f);

    Iq points(kOfdmDataCarriers);
    for (std::size_t i = 0; i < kOfdmDataCarriers; ++i)
      points[i] = bins[ofdm_bin(data_idx[i])] * derot;
    const Bits bits = constellation_demap(points, cfg_.modulation);
    out.insert(out.end(), bits.begin(), bits.end());
  }
  return out;
}

WifiNPhy::RxFrame WifiN::demodulate_frame(std::span<const Cf> iq,
                                          std::size_t payload_bytes) const {
  const WifiNPhy phy(cfg_);  // channel estimate and symbol count
  WifiNPhy::RxFrame rx;
  const std::size_t n_sym = phy.symbols_for_payload(payload_bytes * 8);
  if (iq.size() < WifiNPhy::kPreambleSamples + n_sym * kOfdmSymbolLen)
    return rx;
  const Iq channel = phy.estimate_channel(iq.first(WifiNPhy::kPreambleSamples));
  const Bits coded = demodulate_symbol_bits(
      iq.subspan(WifiNPhy::kPreambleSamples), n_sym, channel);
  const Bits deint =
      deinterleave_11n(coded, wifi_n_coded_bits_per_symbol(cfg_.modulation),
                       bits_per_point(cfg_.modulation));
  const Bits unpunctured =
      depuncture(deint, cfg_.coding_num, cfg_.coding_den,
                 n_sym * cfg_.data_bits_per_symbol());
  const Bits decoded = viterbi_decode(unpunctured);
  const Bits clear = scramble_11n(decoded, cfg_.scrambler_seed);
  if (clear.size() < 16 + payload_bytes * 8) return rx;
  rx.payload = bits_to_bytes_lsb(
      std::span<const uint8_t>(clear).subspan(16, payload_bytes * 8));
  rx.ok = true;
  return rx;
}

std::array<double, 4> one_bit_scores(const ProtocolIdentifier& ident,
                                     std::span<const float> adc_trace) {
  const IdentifierConfig& cfg = ident.config();
  MS_CHECK(cfg.compute == ComputeMode::OneBit);
  const std::size_t onset = ident.detect_onset(adc_trace);
  const std::size_t lp = cfg.templates.preprocess_len;
  const std::size_t margin = std::max<std::size_t>(
      2, static_cast<std::size_t>(cfg.align_search_s *
                                  cfg.templates.adc_rate_hz));
  const std::size_t lo = onset > margin ? onset - margin : 0;
  const std::size_t hi = onset + margin;
  std::array<double, 4> out{};
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const std::vector<int8_t>& tmpl = ident.templates().one_bit[idx];
    double best = -1.0;
    for (std::size_t off = lo;
         off <= hi && off + lp + tmpl.size() <= adc_trace.size(); ++off) {
      const std::vector<int8_t> bits =
          one_bit_window(adc_trace, off, lp, tmpl.size());
      best = std::max(best, sign_correlation(bits, tmpl));
    }
    out[idx] = best;
  }
  return out;
}

}  // namespace ms::oracle
