#include "core/overlay/wifi_b_overlay.h"

#include <cmath>

#include "common/error.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"
#include "phy/scrambler.h"

namespace ms {

namespace {

bool is_cck(WifiBRate r) {
  return r == WifiBRate::Cck5_5M || r == WifiBRate::Cck11M;
}

}  // namespace

WifiBOverlay::WifiBOverlay(OverlayParams params, WifiBConfig phy_cfg)
    : OverlayCodec(params), phy_(phy_cfg) {}

Iq WifiBOverlay::make_carrier(std::span<const uint8_t> productive_bits) const {
  // One reference symbol per sequence, then κ−1 sample-for-sample copies.
  const Iq symbols = phy_.modulate_payload(productive_bits);
  const std::size_t sps = phy_.samples_per_symbol();
  Iq out;
  out.reserve(symbols.size() * params_.kappa);
  for (auto sym = symbols.begin(); sym != symbols.end(); sym += sps)
    for (unsigned rep = 0; rep < params_.kappa; ++rep)
      out.insert(out.end(), sym, sym + sps);
  return out;
}

Iq WifiBOverlay::tag_modulate(std::span<const Cf> carrier,
                              std::span<const uint8_t> tag_bits) const {
  const std::size_t sps = phy_.samples_per_symbol();
  const std::size_t seq_samples = params_.kappa * sps;
  MS_CHECK(carrier.size() % seq_samples == 0);
  const std::size_t n_seq = carrier.size() / seq_samples;
  MS_CHECK(tag_bits.size() <= tag_capacity(n_seq));

  Iq out(carrier.begin(), carrier.end());
  const std::size_t groups = params_.tag_bits_per_sequence();
  std::size_t bit_idx = 0;
  for (std::size_t seq = 0; seq < n_seq; ++seq) {
    for (std::size_t g = 0; g < groups && bit_idx < tag_bits.size(); ++g, ++bit_idx) {
      if (!tag_bits[bit_idx]) continue;  // tag bit 0: phase unchanged
      const std::size_t first_sym = 1 + g * params_.gamma;
      const std::size_t begin = seq * seq_samples + first_sym * sps;
      for (std::size_t k = 0; k < params_.gamma * sps; ++k)
        out[begin + k] = -out[begin + k];  // phase shift of π
    }
  }
  return out;
}

OverlayDecoded WifiBOverlay::decode(std::span<const Cf> rx,
                                    std::size_t n_sequences) const {
  const unsigned spc = phy_.config().samples_per_chip;
  const unsigned cps = wifi_b_chips_per_symbol(phy_.config().rate);
  const std::size_t sps = phy_.samples_per_symbol();
  const std::size_t n_sym = n_sequences * params_.kappa;
  MS_CHECK(rx.size() >= n_sym * sps);
  const bool cck = is_cck(phy_.config().rate);

  // Per-symbol complex value (despread symbol or CCK φ1 rotation) and,
  // for CCK, the per-symbol data bits.
  std::vector<Cf> sym_val(n_sym);
  std::vector<Bits> sym_data(cck ? n_sym : 0);
  Iq chips(cps);
  for (std::size_t s = 0; s < n_sym; ++s) {
    collapse_chips(rx.subspan(s * sps, sps), spc, chips);
    if (cck) {
      Cf rot;
      sym_data[s] = cck_demap(chips, phy_.config().rate == WifiBRate::Cck11M, rot);
      sym_val[s] = rot;
    } else {
      sym_val[s] = barker_despread(chips);
    }
  }

  OverlayDecoded out;
  Cf prev_ref(1.0f, 0.0f);  // matches the modulator's initial phase
  const std::size_t groups = params_.tag_bits_per_sequence();
  Bits air_bits;
  for (std::size_t seq = 0; seq < n_sequences; ++seq) {
    const Cf ref = sym_val[seq * params_.kappa];
    const double dphi = std::arg(ref * std::conj(prev_ref));
    switch (phy_.config().rate) {
      case WifiBRate::Dbpsk1M:
        air_bits.push_back(std::abs(dphi) > M_PI / 2 ? 1 : 0);
        break;
      case WifiBRate::Dqpsk2M: {
        uint8_t b0, b1;
        dqpsk_decide(dphi, false, b0, b1);
        air_bits.push_back(b0);
        air_bits.push_back(b1);
        break;
      }
      case WifiBRate::Cck5_5M:
      case WifiBRate::Cck11M: {
        uint8_t b0, b1;
        dqpsk_decide(dphi, (seq % 2) == 1, b0, b1);
        air_bits.push_back(b0);
        air_bits.push_back(b1);
        const Bits& d = sym_data[seq * params_.kappa];
        air_bits.insert(air_bits.end(), d.begin(), d.end());
        break;
      }
    }
    prev_ref = ref;

    // Tag bits: majority vote of phase flips within each γ-symbol group.
    for (std::size_t g = 0; g < groups; ++g) {
      std::size_t flips = 0;
      for (unsigned k = 0; k < params_.gamma; ++k) {
        const Cf v = sym_val[seq * params_.kappa + 1 + g * params_.gamma + k];
        if (std::abs(std::arg(v * std::conj(ref))) > M_PI / 2) ++flips;
      }
      out.tag.push_back(2 * flips >= params_.gamma ? 1 : 0);
    }
  }
  out.productive = descramble_11b(air_bits, phy_.config().scrambler_seed);
  return out;
}

}  // namespace ms
