#include <gtest/gtest.h>

#include "phy/dsss/wifi_b.h"

namespace ms {
namespace {

WifiBConfig short_cfg() {
  WifiBConfig cfg;
  cfg.short_preamble = true;
  return cfg;
}

TEST(ShortPreamble, DurationIs72usPlusHeader) {
  // Footnote 1: the short preamble is 72 µs; the header then runs at
  // 2 Mbps (24 µs) → 96 µs total vs 192 µs for the long format.
  const WifiBPhy phy(short_cfg());
  EXPECT_DOUBLE_EQ(static_cast<double>(phy.preamble_waveform().size()) /
                       phy.sample_rate_hz(),
                   96e-6);
}

TEST(ShortPreamble, HalvesTheOverhead) {
  const WifiBPhy long_phy{WifiBConfig{}};
  const WifiBPhy short_phy(short_cfg());
  EXPECT_EQ(short_phy.preamble_waveform().size() * 2,
            long_phy.preamble_waveform().size());
}

TEST(ShortPreamble, WaveformDiffersFromLong) {
  // Scrambled zeros vs scrambled ones → entirely different sync fields.
  const WifiBPhy long_phy{WifiBConfig{}};
  const WifiBPhy short_phy(short_cfg());
  const Iq a = long_phy.preamble_waveform();
  const Iq b = short_phy.preamble_waveform();
  EXPECT_NE(a.size(), b.size());
}

}  // namespace
}  // namespace ms
