#include "dsp/kernels/oqpsk_synth.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace ms::kernels {

void oqpsk_synthesize(std::span<const std::uint8_t> symbols,
                      std::span<const std::uint32_t> pn_table, unsigned spc,
                      std::span<Cf> out) {
  MS_CHECK(spc >= 2 && spc % 2 == 0);
  MS_CHECK(pn_table.size() == 16);
  const std::size_t n_chips = symbols.size() * 32;  // one chip per PN bit
  const std::size_t n_samples = n_chips * spc + spc;
  MS_CHECK(out.size() == n_samples);

  std::fill(out.begin(), out.end(), Cf(0.0f, 0.0f));
  std::vector<float> pulse(2 * spc);
  for (std::size_t k = 0; k < pulse.size(); ++k)
    pulse[k] = static_cast<float>(std::sin(
        M_PI * static_cast<double>(k) / static_cast<double>(pulse.size())));

  std::size_t chip_idx = 0;
  for (std::uint8_t sym : symbols) {
    MS_CHECK(sym < 16);
    const std::uint32_t pn = pn_table[sym];
    for (unsigned c = 0; c < 32; ++c, ++chip_idx) {
      const float v = (pn >> c) & 1u ? 1.0f : -1.0f;
      const bool is_i = (chip_idx % 2) == 0;
      const std::size_t start = (chip_idx / 2) * 2 * spc + (is_i ? 0 : spc);
      Cf* dst = out.data() + start;
      // Same-branch pulses tile exactly, so each covered sample is one
      // store into its I (real) or Q (imaginary) part; only the very
      // last Q pulse runs past the buffer.  The `0.0f +` reproduces the
      // oracle's add-onto-zero so a −0.0f product lands as +0.0f.
      const std::size_t len = std::min<std::size_t>(2 * spc,
                                                    n_samples - start);
      if (is_i)
        for (std::size_t k = 0; k < len; ++k)
          dst[k].real(0.0f + v * pulse[k]);
      else
        for (std::size_t k = 0; k < len; ++k)
          dst[k].imag(0.0f + v * pulse[k]);
    }
  }

  const float norm = 1.0f / std::sqrt(2.0f);
  for (Cf& s : out) s = Cf(s.real() * norm, s.imag() * norm);
}

}  // namespace ms::kernels
