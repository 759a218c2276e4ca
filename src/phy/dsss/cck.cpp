#include "phy/dsss/cck.h"

#include <cmath>

#include "common/error.h"
#include "dsp/kernels/cmac_bank.h"

namespace ms {

namespace {

Cf expj(double phi) {
  return Cf(static_cast<float>(std::cos(phi)), static_cast<float>(std::sin(phi)));
}

/// 802.11b QPSK phase mapping for (d0, d1): 00→0, 01→π/2, 10→π, 11→3π/2.
double qpsk_phase(uint8_t d0, uint8_t d1) {
  const unsigned idx = (static_cast<unsigned>(d0) << 1) | d1;
  static const double phases[4] = {0.0, M_PI / 2, M_PI, 3 * M_PI / 2};
  return phases[idx];
}

double wrap_phase(double p) {
  while (p > M_PI) p -= 2 * M_PI;
  while (p < -M_PI) p += 2 * M_PI;
  return p;
}

}  // namespace

Iq cck_codeword(double phi1, double phi2, double phi3, double phi4) {
  Iq c(kCckChips);
  c[0] = expj(phi1 + phi2 + phi3 + phi4);
  c[1] = expj(phi1 + phi3 + phi4);
  c[2] = expj(phi1 + phi2 + phi4);
  c[3] = -expj(phi1 + phi4);
  c[4] = expj(phi1 + phi2 + phi3);
  c[5] = expj(phi1 + phi3);
  c[6] = -expj(phi1 + phi2);
  c[7] = expj(phi1);
  return c;
}

void cck_data_phases(std::span<const uint8_t> bits, bool rate11,
                     double& phi2, double& phi3, double& phi4) {
  if (rate11) {
    MS_CHECK(bits.size() >= 6);
    phi2 = qpsk_phase(bits[0], bits[1]);
    phi3 = qpsk_phase(bits[2], bits[3]);
    phi4 = qpsk_phase(bits[4], bits[5]);
  } else {
    MS_CHECK(bits.size() >= 2);
    // 5.5 Mbps mapping per 802.11b-1999 §18.4.6.5.3.
    phi2 = bits[0] * M_PI + M_PI / 2;
    phi3 = 0.0;
    phi4 = bits[1] * M_PI;
  }
}

namespace {

kernels::CmacBank build_cck_bank(bool rate11) {
  const unsigned n_codewords = rate11 ? 64 : 4;
  kernels::CmacBank bank;
  bank.reset(n_codewords, kCckChips);
  Bits bits(rate11 ? 6 : 2);
  for (unsigned code = 0; code < n_codewords; ++code) {
    for (std::size_t b = 0; b < bits.size(); ++b)
      bits[b] = static_cast<uint8_t>((code >> (bits.size() - 1 - b)) & 1u);
    double phi2, phi3, phi4;
    cck_data_phases(bits, rate11, phi2, phi3, phi4);
    bank.set_candidate(code, cck_codeword(0.0, phi2, phi3, phi4));
  }
  return bank;
}

const kernels::CmacBank& cck_bank(bool rate11) {
  static const kernels::CmacBank bank11 = build_cck_bank(true);
  static const kernels::CmacBank bank55 = build_cck_bank(false);
  return rate11 ? bank11 : bank55;
}

}  // namespace

Bits cck_demap(std::span<const Cf> chips, bool rate11, Cf& rot) {
  MS_CHECK(chips.size() == kCckChips);
  const auto best = cck_bank(rate11).best_match(chips);
  Bits bits(rate11 ? 6 : 2);
  for (std::size_t b = 0; b < bits.size(); ++b)
    bits[b] = static_cast<uint8_t>((best.index >> (bits.size() - 1 - b)) & 1u);
  // |corr| is φ1-invariant; arg(corr) recovers φ1.
  const double mag = std::abs(best.corr);
  rot = best.corr / static_cast<float>(mag == 0.0 ? 1.0 : mag);
  return bits;
}

double dqpsk_increment(uint8_t b0, uint8_t b1, bool odd_symbol) {
  // 802.11b DQPSK: (0,0)→0, (0,1)→π/2, (1,1)→π, (1,0)→3π/2 (−π/2);
  // odd symbols add an extra π (CCK clause).
  const unsigned idx = (static_cast<unsigned>(b0) << 1) | b1;
  static const double inc[4] = {0.0, M_PI / 2, 3 * M_PI / 2, M_PI};
  return inc[idx] + (odd_symbol ? M_PI : 0.0);
}

void dqpsk_decide(double delta_phase, bool odd_symbol, uint8_t& b0,
                  uint8_t& b1) {
  double p = delta_phase - (odd_symbol ? M_PI : 0.0);
  p = wrap_phase(p);
  // Quantize to the nearest of {0, π/2, π, −π/2} and invert the mapping.
  const int q = static_cast<int>(std::lround(p / (M_PI / 2)));
  switch ((q % 4 + 4) % 4) {
    case 0: b0 = 0; b1 = 0; break;
    case 1: b0 = 0; b1 = 1; break;
    case 2: b0 = 1; b1 = 1; break;
    default: b0 = 1; b1 = 0; break;
  }
}

}  // namespace ms
