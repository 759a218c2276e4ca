#include "raw_receivers.h"

#include <cmath>

#include "common/error.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"

namespace ms {

Bits demodulate_air_bits(const WifiBPhy& phy, std::span<const Cf> iq,
                         std::size_t n_bits, Cf init_ref) {
  const WifiBRate rate = phy.config().rate;
  const unsigned bps = wifi_b_bits_per_symbol(rate);
  const unsigned cps = wifi_b_chips_per_symbol(rate);
  MS_CHECK(n_bits % bps == 0);
  const std::size_t n_sym = n_bits / bps;
  const std::size_t sps = phy.samples_per_symbol();
  MS_CHECK_MSG(iq.size() >= n_sym * sps, "waveform shorter than requested bits");

  Bits out;
  out.reserve(n_bits);
  Cf prev = init_ref;
  // One scratch buffer holds every symbol's collapsed chips.
  Iq chips(cps);
  for (std::size_t s = 0; s < n_sym; ++s) {
    collapse_chips(iq.subspan(s * sps, sps), phy.config().samples_per_chip,
                   chips);
    switch (rate) {
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
        const Bits data = cck_demap(chips, rate == WifiBRate::Cck11M, rot);
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

Bits demodulate_bits(const BlePhy& phy, std::span<const Cf> iq,
                     std::size_t n_bits) {
  const Samples f = phy.symbol_frequencies(iq, n_bits);
  Bits out(n_bits);
  for (std::size_t i = 0; i < n_bits; ++i) out[i] = f[i] > 0.0f ? 1 : 0;
  return out;
}

}  // namespace ms
