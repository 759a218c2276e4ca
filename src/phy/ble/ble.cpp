#include "phy/ble/ble.h"

#include <cmath>

#include "common/error.h"
#include "dsp/fir.h"
#include "dsp/kernels/gfsk.h"

namespace ms {

BlePhy::BlePhy(BleConfig cfg)
    : cfg_(cfg),
      gauss_taps_(design_gaussian(cfg.bt, cfg.samples_per_symbol)) {
  MS_CHECK(cfg_.samples_per_symbol >= 2);
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

Samples BlePhy::symbol_frequencies(std::span<const Cf> iq,
                                   std::size_t n_symbols) const {
  Samples out(n_symbols, 0.0f);
  kernels::gfsk_symbol_frequencies(iq, sample_rate_hz(),
                                   cfg_.samples_per_symbol, out);
  return out;
}

}  // namespace ms
