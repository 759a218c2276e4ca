// Conformance against the committed golden fixtures.  Any line diff is a
// waveform drift: either a regression (fix the code) or an intentional
// change (regenerate with scripts/regen_golden.sh and review the diff).
#include <algorithm>
#include <cctype>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_vectors.h"

namespace ms::golden {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class GoldenFile : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenFile, MatchesCommittedFixture) {
  const std::vector<Vector> all = build_all();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Vector& v) {
    return v.filename == GetParam();
  });
  ASSERT_NE(it, all.end()) << "no builder for " << GetParam();

  const std::string path = std::string(MS_GOLDEN_DIR) + "/" + it->filename;
  const std::vector<std::string> expect = read_lines(path);
  ASSERT_FALSE(expect.empty())
      << "missing or empty fixture " << path
      << " — run scripts/regen_golden.sh and commit the result";

  ASSERT_EQ(expect.size(), it->lines.size())
      << "GOLDEN DRIFT in " << it->filename << ": fixture has "
      << expect.size() << " lines, live code produced " << it->lines.size()
      << ".  If intentional, run scripts/regen_golden.sh.";
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i], it->lines[i])
        << "GOLDEN DRIFT in " << it->filename << " at line " << (i + 1)
        << ":\n  fixture: " << expect[i] << "\n  live:    " << it->lines[i]
        << "\nIf intentional, run scripts/regen_golden.sh and review the"
        << " fixture diff.";
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenFile,
    ::testing::Values("wifi_b_barker_chips.txt", "wifi_b_cck_chips.txt",
                      "ble_whitened_payload.txt", "zigbee_chip_waveform.txt",
                      "overlay_frame_bits.txt",
                      "ident_packed_templates.txt",
                      "ble_gfsk_softbits.txt",
                      "ofdm_deinterleaved_bits.txt",
                      "fleet_superposed_2tag.txt",
                      "fleet_superposed_3tag.txt",
                      "channel_noise_stream.txt"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// The builder list and the parameter list above must stay in sync.
TEST(GoldenCorpus, CoversEveryBuilder) {
  EXPECT_EQ(build_all().size(), 11u);
}

}  // namespace
}  // namespace ms::golden
