#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/rng.h"

namespace ms {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string temp_path(const char* name) {
    return std::string(::testing::TempDir()) + "/" + name;
  }
};

TEST_F(TraceIoTest, IqRoundTrip) {
  Rng rng(1);
  Iq x(500);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  const std::string path = temp_path("iq.mstr");
  save_trace(path, x, 8e6);
  double rate = 0.0;
  const Iq y = load_iq_trace(path, &rate);
  EXPECT_EQ(y, x);
  EXPECT_DOUBLE_EQ(rate, 8e6);
}

// Corrupt one byte at `offset` in the file.
void patch_byte(const std::string& path, std::size_t offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(value);
}

TEST_F(TraceIoTest, TypeMismatchThrows) {
  // A well-formed real-valued trace: 10 float samples, marked real
  // (complex_iq, u32 at offset 8) over the 40 payload bytes of 5 IQ
  // samples, with n_samples (u64 at offset 24) raised to match.
  const std::string path = temp_path("mismatch.mstr");
  save_trace(path, Iq(5, Cf(1, 0)), 1e6);
  patch_byte(path, 8, 0);
  patch_byte(path, 24, 10);
  try {
    load_iq_trace(path);
    FAIL() << "expected ms::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("real-valued"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoTest, CorruptMagicRejected) {
  const std::string path = temp_path("corrupt.mstr");
  std::ofstream(path) << "this is not a trace file at all, not even close";
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, TruncatedPayloadRejected) {
  const std::string path = temp_path("trunc.mstr");
  save_trace(path, Iq(100, Cf(1, 0)), 1e6);
  // Chop the file short.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 40);
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, BadVersionRejected) {
  const std::string path = temp_path("badver.mstr");
  save_trace(path, Iq(10, Cf(1, 0)), 1e6);
  patch_byte(path, 4, 9);  // version field (little-endian u32 at offset 4)
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, BadElementTypeRejected) {
  const std::string path = temp_path("badelem.mstr");
  save_trace(path, Iq(10, Cf(1, 0)), 1e6);
  patch_byte(path, 8, 7);  // complex_iq field: neither 0 nor 1
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, HeaderSampleCountMismatchRejected) {
  const std::string path = temp_path("badcount.mstr");
  save_trace(path, Iq(100, Cf(1, 0)), 1e6);
  // Inflate the header's n_samples (u64 at offset 24) beyond the file.
  patch_byte(path, 24, 127);
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, TrailingGarbageRejected) {
  const std::string path = temp_path("trailing.mstr");
  save_trace(path, Iq(50, Cf(1, 0)), 1e6);
  std::ofstream(path, std::ios::binary | std::ios::app) << "extra bytes";
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, TruncatedHeaderRejected) {
  const std::string path = temp_path("shorthdr.mstr");
  std::ofstream(path, std::ios::binary) << "MSTR";  // magic only
  EXPECT_THROW(load_iq_trace(path), Error);
}

TEST_F(TraceIoTest, TruncatedPayloadErrorIsDescriptive) {
  const std::string path = temp_path("desc.mstr");
  save_trace(path, Iq(100, Cf(1, 0)), 1e6);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 12);
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  try {
    load_iq_trace(path);
    FAIL() << "expected ms::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;  // promised count
  }
}

TEST_F(TraceIoTest, HeaderErrorsNameFieldAndOffset) {
  // Each header parse error must name the offending field and its byte
  // offset so corrupt files can be diagnosed with a hex dump.
  const auto expect_error_mentions =
      [](const std::string& path, const std::string& field,
         const std::string& offset) {
        try {
          load_iq_trace(path);
          FAIL() << "expected ms::Error for " << field;
        } catch (const Error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(field), std::string::npos) << what;
          EXPECT_NE(what.find(offset), std::string::npos) << what;
          EXPECT_NE(what.find(path), std::string::npos) << what;
        }
      };

  const std::string bad_version = temp_path("field_version.mstr");
  save_trace(bad_version, Iq(10, Cf(1, 0)), 1e6);
  patch_byte(bad_version, 4, 9);
  expect_error_mentions(bad_version, "version", "4");

  const std::string bad_elem = temp_path("field_elem.mstr");
  save_trace(bad_elem, Iq(10, Cf(1, 0)), 1e6);
  patch_byte(bad_elem, 8, 7);
  expect_error_mentions(bad_elem, "complex_iq", "8");

  const std::string bad_count = temp_path("field_count.mstr");
  save_trace(bad_count, Iq(100, Cf(1, 0)), 1e6);
  patch_byte(bad_count, 24, 127);
  expect_error_mentions(bad_count, "n_samples", "24");
}

TEST_F(TraceIoTest, ShortHeaderErrorReportsByteCounts) {
  const std::string path = temp_path("short_counts.mstr");
  std::ofstream(path, std::ios::binary) << "MSTR";  // 4 of 32 bytes
  try {
    load_iq_trace(path);
    FAIL() << "expected ms::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4"), std::string::npos) << what;   // bytes read
    EXPECT_NE(what.find("32"), std::string::npos) << what;  // header size
  }
}

TEST_F(TraceIoTest, TruncatedTraceErrorNamesLastWholeSample) {
  const std::string path = temp_path("trunc_sample.mstr");
  save_trace(path, Iq(100, Cf(1, 0)), 1e6);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 22);  // 97 whole samples + 2 stray bytes
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  try {
    load_iq_trace(path);
    FAIL() << "expected ms::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("97"), std::string::npos)
        << "error should report where the payload actually ends: " << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
  }
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_iq_trace(temp_path("does_not_exist.mstr")), Error);
}

TEST_F(TraceIoTest, CsvWritesColumns) {
  const std::string path = temp_path("out.csv");
  const std::vector<CsvColumn> cols = {{"d_m", {1, 2, 3}},
                                       {"rssi", {-60.5, -70.25}}};
  save_csv(path, cols);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "d_m,rssi");
  std::getline(f, line);
  EXPECT_EQ(line, "1,-60.5");
  std::getline(f, line);
  EXPECT_EQ(line, "2,-70.25");
  std::getline(f, line);
  EXPECT_EQ(line, "3,");  // ragged column padded with empty cell
}

}  // namespace
}  // namespace ms
