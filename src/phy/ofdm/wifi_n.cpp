#include "phy/ofdm/wifi_n.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "dsp/fft.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/ofdm/mcs.h"
#include "phy/ofdm/subcarriers.h"
#include "phy/scrambler.h"

namespace ms {

unsigned wifi_n_coded_bits_per_symbol(Modulation m) {
  return static_cast<unsigned>(kOfdmDataCarriers) * bits_per_point(m);
}

WifiNConfig WifiNConfig::from_mcs(unsigned mcs_index) {
  const McsInfo& mcs = mcs_info(mcs_index);
  WifiNConfig cfg;
  cfg.modulation = mcs.modulation;
  cfg.coding_num = mcs.coding_num;
  cfg.coding_den = mcs.coding_den;
  return cfg;
}

unsigned WifiNConfig::data_bits_per_symbol() const {
  return wifi_n_coded_bits_per_symbol(modulation) * coding_num / coding_den;
}

WifiNPhy::WifiNPhy(WifiNConfig cfg) : cfg_(cfg) {
  MS_CHECK(cfg_.coding_num >= 1 && cfg_.coding_den > cfg_.coding_num);
}

namespace {

/// Build one time-domain OFDM symbol (CP + 64) from 48 data points,
/// running `plan`'s inverse FFT over stack scratch.
Iq ofdm_symbol(const FftPlan& plan, std::span<const Cf> data_points,
               std::size_t symbol_index) {
  MS_CHECK(data_points.size() == kOfdmDataCarriers);
  // Frequency bins, then time samples after the in-place inverse FFT.
  std::array<Cf, kOfdmFftSize> t;
  t.fill(Cf(0.0f, 0.0f));
  const auto data_idx = ofdm_data_indices();
  for (std::size_t i = 0; i < kOfdmDataCarriers; ++i)
    t[ofdm_bin(data_idx[i])] = data_points[i];
  const auto pilot_idx = ofdm_pilot_indices();
  const auto pilot_val = ofdm_pilot_values();
  const float pol = ofdm_pilot_polarity(symbol_index);
  for (std::size_t i = 0; i < kOfdmPilotCarriers; ++i)
    t[ofdm_bin(pilot_idx[i])] = Cf(pilot_val[i] * pol, 0.0f);
  plan.inverse(t);
  // Normalize to unit mean power over 52 active carriers.
  const float scale = static_cast<float>(kOfdmFftSize) / std::sqrt(52.0f);
  for (Cf& v : t) v *= scale;
  Iq out;
  out.reserve(kOfdmSymbolLen);
  out.insert(out.end(), t.end() - kOfdmCpLen, t.end());  // cyclic prefix
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

}  // namespace

Iq WifiNPhy::preamble_waveform() const {
  Iq out = ofdm_stf_time();  // 160 samples
  // L-LTF: 32-sample CP then two 64-sample periods.
  const Iq ltf = ofdm_ltf_time();
  out.insert(out.end(), ltf.end() - 32, ltf.end());
  out.insert(out.end(), ltf.begin(), ltf.end());
  out.insert(out.end(), ltf.begin(), ltf.end());
  // L-SIG (1 symbol) + HT-SIG (2 symbols): fixed rate/length fields,
  // BPSK.  Fixed bit content keeps the full preamble deterministic.
  {
    Bits sig(3 * 48);
    uint8_t lfsr = 0x35;  // arbitrary fixed pattern
    for (auto& b : sig) {
      b = lfsr & 1u;
      lfsr = static_cast<uint8_t>((lfsr >> 1) ^ ((lfsr & 1u) ? 0x71 : 0));
    }
    WifiNConfig sig_cfg;
    sig_cfg.modulation = Modulation::Bpsk;
    const Iq sig_wave = WifiNPhy(sig_cfg).modulate_coded_symbols(sig);
    out.insert(out.end(), sig_wave.begin(), sig_wave.end());
  }
  // HT-STF: short training structure for 80 samples (4 µs).
  const Iq stf = ofdm_stf_time();
  out.insert(out.end(), stf.begin(), stf.begin() + 80);
  // Two HT-LTF symbols (CP + 64 each).
  for (int rep = 0; rep < 2; ++rep) {
    out.insert(out.end(), ltf.end() - kOfdmCpLen, ltf.end());
    out.insert(out.end(), ltf.begin(), ltf.end());
  }
  MS_CHECK(out.size() == kPreambleSamples);
  return out;
}

Bits WifiNPhy::encode(std::span<const uint8_t> payload_bits) const {
  // SERVICE (16 zero bits) + payload + 6 tail zeros, padded to a whole
  // number of symbols, scrambled (tail region re-zeroed per the
  // standard), BCC encoded, punctured to the coding rate, interleaved.
  const unsigned ndbps = cfg_.data_bits_per_symbol();
  Bits data;
  data.insert(data.end(), 16, 0);
  data.insert(data.end(), payload_bits.begin(), payload_bits.end());
  data.insert(data.end(), 6, 0);
  while (data.size() % ndbps != 0) data.push_back(0);

  Bits scrambled = scramble_11n(data, cfg_.scrambler_seed);
  // Reset the 6 tail bits to zero so the Viterbi trellis terminates.
  for (std::size_t i = 16 + payload_bits.size();
       i < 16 + payload_bits.size() + 6; ++i)
    scrambled[i] = 0;

  const Bits coded =
      puncture(conv_encode(scrambled), cfg_.coding_num, cfg_.coding_den);
  return interleave_11n(coded, wifi_n_coded_bits_per_symbol(cfg_.modulation),
                        bits_per_point(cfg_.modulation));
}

Iq WifiNPhy::modulate_coded_symbols(std::span<const uint8_t> coded_bits,
                                    std::size_t first_symbol_index) const {
  const unsigned ncbps = wifi_n_coded_bits_per_symbol(cfg_.modulation);
  MS_CHECK(coded_bits.size() % ncbps == 0);
  const std::size_t n_sym = coded_bits.size() / ncbps;
  const FftPlan& plan = fft_plan(kOfdmFftSize);
  Iq out;
  out.reserve(n_sym * kOfdmSymbolLen);
  for (std::size_t s = 0; s < n_sym; ++s) {
    const Iq points = constellation_map(coded_bits.subspan(s * ncbps, ncbps),
                                        cfg_.modulation);
    const Iq sym = ofdm_symbol(plan, points, first_symbol_index + s);
    out.insert(out.end(), sym.begin(), sym.end());
  }
  return out;
}

Iq WifiNPhy::modulate_frame(std::span<const uint8_t> payload_bytes) const {
  Iq out = preamble_waveform();
  const Bits bits = bytes_to_bits_lsb(payload_bytes);
  const Bits coded = encode(bits);
  const Iq body = modulate_coded_symbols(coded);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bits WifiNPhy::demodulate_symbol_bits(std::span<const Cf> iq,
                                      std::size_t n_symbols,
                                      std::span<const Cf> channel,
                                      std::size_t first_symbol_index) const {
  MS_CHECK(iq.size() >= n_symbols * kOfdmSymbolLen);
  const auto data_idx = ofdm_data_indices();
  Bits out;
  out.reserve(n_symbols * wifi_n_coded_bits_per_symbol(cfg_.modulation));
  // One stack bins buffer and the planned FFT serve every symbol.
  std::array<Cf, kOfdmFftSize> bins;
  std::array<Cf, kOfdmDataCarriers> points;
  const FftPlan& plan = fft_plan(kOfdmFftSize);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const auto symbol = iq.subspan(s * kOfdmSymbolLen, kOfdmSymbolLen);
    std::copy(symbol.begin() + kOfdmCpLen, symbol.end(), bins.begin());
    plan.forward(bins);
    const float scale = std::sqrt(52.0f) / static_cast<float>(kOfdmFftSize);
    for (Cf& v : bins) v *= scale;
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
    for (std::size_t i = 0; i < kOfdmDataCarriers; ++i)
      points[i] = bins[ofdm_bin(data_idx[i])] * derot;
    const Bits bits = constellation_demap(points, cfg_.modulation);
    out.insert(out.end(), bits.begin(), bits.end());
  }
  return out;
}

Iq WifiNPhy::estimate_channel(std::span<const Cf> preamble) const {
  MS_CHECK(preamble.size() >= 352);  // through both L-LTF periods
  // L-LTF periods start at 192 and 256 (after 160 STF + 32 CP).
  const FftPlan& plan = fft_plan(kOfdmFftSize);
  Iq sum(kOfdmFftSize, Cf(0.0f, 0.0f));
  for (std::size_t rep = 0; rep < 2; ++rep) {
    Iq t(preamble.begin() + 192 + rep * 64, preamble.begin() + 256 + rep * 64);
    plan.forward(t);
    const float scale = std::sqrt(52.0f) / static_cast<float>(kOfdmFftSize);
    for (std::size_t b = 0; b < kOfdmFftSize; ++b) sum[b] += t[b] * scale;
  }
  const auto ltf = ofdm_ltf_sequence();
  Iq channel(kOfdmFftSize, Cf(0.0f, 0.0f));
  for (int k = -26; k <= 26; ++k) {
    const float ref = ltf[static_cast<std::size_t>(k + 26)];
    if (ref != 0.0f)
      channel[ofdm_bin(k)] = sum[ofdm_bin(k)] * (0.5f / ref);
  }
  return channel;
}

std::size_t WifiNPhy::symbols_for_payload(std::size_t payload_bits) const {
  const unsigned ndbps = cfg_.data_bits_per_symbol();
  const std::size_t total = 16 + payload_bits + 6;
  return (total + ndbps - 1) / ndbps;
}

WifiNPhy::RxFrame WifiNPhy::demodulate_frame(std::span<const Cf> iq,
                                             std::size_t payload_bytes) const {
  RxFrame rx;
  const std::size_t n_sym = symbols_for_payload(payload_bytes * 8);
  if (iq.size() < kPreambleSamples + n_sym * kOfdmSymbolLen) return rx;
  const Iq channel = estimate_channel(iq.first(kPreambleSamples));
  const Bits coded = demodulate_symbol_bits(iq.subspan(kPreambleSamples),
                                            n_sym, channel);
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

}  // namespace ms
