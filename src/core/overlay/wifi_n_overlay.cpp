#include "core/overlay/wifi_n_overlay.h"

#include <cmath>

#include "common/error.h"
#include "dsp/fft.h"
#include "phy/ofdm/subcarriers.h"

namespace ms {

WifiNOverlay::WifiNOverlay(OverlayParams params, WifiNConfig phy_cfg)
    : OverlayCodec(params), phy_(phy_cfg) {}

Iq WifiNOverlay::make_carrier(std::span<const uint8_t> productive_bits) const {
  const unsigned ncbps = productive_bits_per_sequence();
  MS_CHECK(productive_bits.size() % ncbps == 0);
  const std::size_t n_seq = productive_bits.size() / ncbps;
  Iq out;
  out.reserve(n_seq * params_.kappa * kOfdmSymbolLen);
  for (std::size_t seq = 0; seq < n_seq; ++seq) {
    // One OFDM symbol per sequence (pilot polarity indexed by sequence),
    // repeated κ times sample-for-sample.
    const Iq sym = phy_.modulate_coded_symbols(
        productive_bits.subspan(seq * ncbps, ncbps), seq);
    for (unsigned rep = 0; rep < params_.kappa; ++rep)
      out.insert(out.end(), sym.begin(), sym.end());
  }
  return out;
}

Iq WifiNOverlay::tag_modulate(std::span<const Cf> carrier,
                              std::span<const uint8_t> tag_bits) const {
  const std::size_t seq_samples = params_.kappa * kOfdmSymbolLen;
  MS_CHECK(carrier.size() % seq_samples == 0);
  const std::size_t n_seq = carrier.size() / seq_samples;
  MS_CHECK(tag_bits.size() <= tag_capacity(n_seq));

  Iq out(carrier.begin(), carrier.end());
  const std::size_t groups = params_.tag_bits_per_sequence();
  std::size_t bit_idx = 0;
  for (std::size_t seq = 0; seq < n_seq; ++seq) {
    for (std::size_t g = 0; g < groups && bit_idx < tag_bits.size(); ++g, ++bit_idx) {
      if (!tag_bits[bit_idx]) continue;
      const std::size_t begin =
          seq * seq_samples + (1 + g * params_.gamma) * kOfdmSymbolLen;
      for (std::size_t k = 0; k < params_.gamma * kOfdmSymbolLen; ++k)
        out[begin + k] = -out[begin + k];
    }
  }
  return out;
}

namespace {

/// 48 equalization-free data-subcarrier points of one received symbol.
Iq symbol_points(const FftPlan& plan, std::span<const Cf> symbol) {
  MS_CHECK(symbol.size() == kOfdmSymbolLen);
  Iq t(symbol.begin() + kOfdmCpLen, symbol.end());
  plan.forward(t);
  const auto data_idx = ofdm_data_indices();
  Iq points(kOfdmDataCarriers);
  for (std::size_t i = 0; i < kOfdmDataCarriers; ++i)
    points[i] = t[ofdm_bin(data_idx[i])];
  return points;
}

}  // namespace

OverlayDecoded WifiNOverlay::decode(std::span<const Cf> rx,
                                    std::size_t n_sequences) const {
  const std::size_t seq_samples = params_.kappa * kOfdmSymbolLen;
  MS_CHECK(rx.size() >= n_sequences * seq_samples);
  const std::size_t groups = params_.tag_bits_per_sequence();
  const FftPlan& plan = fft_plan(kOfdmFftSize);

  OverlayDecoded out;
  for (std::size_t seq = 0; seq < n_sequences; ++seq) {
    const auto seq_span = rx.subspan(seq * seq_samples, seq_samples);
    const Iq ref = symbol_points(plan, seq_span.first(kOfdmSymbolLen));

    const Bits ref_bits = constellation_demap(ref, phy_.config().modulation);
    out.productive.insert(out.productive.end(), ref_bits.begin(),
                          ref_bits.end());

    for (std::size_t g = 0; g < groups; ++g) {
      std::size_t flips = 0;
      for (unsigned k = 0; k < params_.gamma; ++k) {
        const std::size_t sym = 1 + g * params_.gamma + k;
        const Iq pts = symbol_points(
            plan, seq_span.subspan(sym * kOfdmSymbolLen, kOfdmSymbolLen));
        // Phase-flip metric over the middle half of the data subcarriers
        // (§2.4.2: majority voting on the middle half).
        double metric = 0.0;
        for (std::size_t i = kOfdmDataCarriers / 4;
             i < 3 * kOfdmDataCarriers / 4; ++i)
          metric += static_cast<double>(
              (pts[i] * std::conj(ref[i])).real());
        if (metric < 0.0) ++flips;
      }
      out.tag.push_back(2 * flips >= params_.gamma ? 1 : 0);
    }
  }
  return out;
}

}  // namespace ms
