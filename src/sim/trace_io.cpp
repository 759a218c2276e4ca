#include "sim/trace_io.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/error.h"

namespace ms {

namespace {

constexpr char kMagic[4] = {'M', 'S', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

struct RawHeader {
  char magic[4];
  std::uint32_t version;
  std::uint32_t complex_iq;  // 0 = real, 1 = complex
  std::uint32_t reserved;
  double sample_rate_hz;
  std::uint64_t n_samples;
};
static_assert(sizeof(RawHeader) == 32);

void write_header(std::ofstream& f, double rate, std::size_t n) {
  RawHeader h{};
  std::memcpy(h.magic, kMagic, 4);
  h.version = kVersion;
  h.complex_iq = 1;
  h.sample_rate_hz = rate;
  h.n_samples = n;
  f.write(reinterpret_cast<const char*>(&h), sizeof h);
}

RawHeader read_header(std::ifstream& f, const std::string& path) {
  RawHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  MS_CHECK_MSG(f.good(),
               "cannot read trace header: got " +
                   std::to_string(f.gcount()) + " of " +
                   std::to_string(sizeof h) + " header bytes: " + path);
  // Each parse error names the offending header field and its byte
  // offset so a corrupt file can be diagnosed with a hex dump.
  MS_CHECK_MSG(std::memcmp(h.magic, kMagic, 4) == 0,
               "not a multiscatter trace file (field 'magic', byte offset "
               "0, expected \"MSTR\"): " + path);
  MS_CHECK_MSG(
      h.version == kVersion,
      "unsupported trace version " + std::to_string(h.version) +
          " (field 'version', byte offset " +
          std::to_string(offsetof(RawHeader, version)) + ", expected " +
          std::to_string(kVersion) + "): " + path);
  MS_CHECK_MSG(h.complex_iq <= 1,
               "corrupt trace header: element type " +
                   std::to_string(h.complex_iq) +
                   " is neither real (0) nor complex (1) (field "
                   "'complex_iq', byte offset " +
                   std::to_string(offsetof(RawHeader, complex_iq)) +
                   "): " + path);
  MS_CHECK_MSG(h.sample_rate_hz > 0.0 && std::isfinite(h.sample_rate_hz),
               "corrupt trace header: sample rate " +
                   std::to_string(h.sample_rate_hz) +
                   " is not positive and finite (field 'sample_rate_hz', "
                   "byte offset " +
                   std::to_string(offsetof(RawHeader, sample_rate_hz)) +
                   "): " + path);

  // The header's sample count must agree with what is actually on disk —
  // a short read must fail loudly here, never hand back a short buffer.
  const std::streampos payload_start = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streampos end = f.tellg();
  f.seekg(payload_start);
  MS_CHECK_MSG(f.good() && payload_start >= 0 && end >= payload_start,
               "cannot size trace file: " + path);
  const auto payload_bytes =
      static_cast<std::uint64_t>(end - payload_start);
  const std::uint64_t elem = h.complex_iq ? sizeof(Cf) : sizeof(float);
  MS_CHECK_MSG(
      h.n_samples <= payload_bytes / elem,
      "truncated trace: field 'n_samples' (byte offset " +
          std::to_string(offsetof(RawHeader, n_samples)) + ") promises " +
          std::to_string(h.n_samples) + " samples (" +
          std::to_string(h.n_samples * elem) +
          " payload bytes) but the file holds only " +
          std::to_string(payload_bytes / elem) + " whole samples (" +
          std::to_string(payload_bytes) + " bytes) — payload ends at "
          "sample " + std::to_string(payload_bytes / elem) + ": " + path);
  MS_CHECK_MSG(
      h.n_samples * elem == payload_bytes,
      "corrupt trace: field 'n_samples' (byte offset " +
          std::to_string(offsetof(RawHeader, n_samples)) + ") promises " +
          std::to_string(h.n_samples) + " samples but the file holds " +
          std::to_string(payload_bytes / elem) + " (" +
          std::to_string(payload_bytes) + " payload bytes): " + path);
  return h;
}

}  // namespace

void save_trace(const std::string& path, std::span<const Cf> iq,
                double sample_rate_hz) {
  std::ofstream f(path, std::ios::binary);
  MS_CHECK_MSG(f.is_open(), "cannot open for write: " + path);
  write_header(f, sample_rate_hz, iq.size());
  f.write(reinterpret_cast<const char*>(iq.data()),
          static_cast<std::streamsize>(iq.size() * sizeof(Cf)));
  MS_CHECK_MSG(f.good(), "write failed: " + path);
}

Iq load_iq_trace(const std::string& path, double* sample_rate_hz) {
  std::ifstream f(path, std::ios::binary);
  MS_CHECK_MSG(f.is_open(), "cannot open: " + path);
  const RawHeader h = read_header(f, path);
  MS_CHECK_MSG(h.complex_iq == 1, "trace is real-valued: " + path);
  Iq out(static_cast<std::size_t>(h.n_samples));
  f.read(reinterpret_cast<char*>(out.data()),
         static_cast<std::streamsize>(out.size() * sizeof(Cf)));
  MS_CHECK_MSG(f.good(),
               "truncated trace: read failed at sample " +
                   std::to_string(static_cast<std::uint64_t>(f.gcount()) /
                                  sizeof(Cf)) +
                   " of " + std::to_string(h.n_samples) + ": " + path);
  if (sample_rate_hz) *sample_rate_hz = h.sample_rate_hz;
  return out;
}

void save_csv(const std::string& path, std::span<const CsvColumn> columns) {
  MS_CHECK(!columns.empty());
  std::size_t rows = 0;
  for (const CsvColumn& c : columns) rows = std::max(rows, c.values.size());
  std::ofstream f(path);
  MS_CHECK_MSG(f.is_open(), "cannot open for write: " + path);
  for (std::size_t c = 0; c < columns.size(); ++c)
    f << columns[c].name << (c + 1 < columns.size() ? "," : "\n");
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (r < columns[c].values.size()) f << columns[c].values[r];
      f << (c + 1 < columns.size() ? "," : "\n");
    }
  }
  MS_CHECK_MSG(f.good(), "write failed: " + path);
}

}  // namespace ms
