#include "common/bits.h"

#include <algorithm>

#include "common/error.h"

namespace ms {

Bits bytes_to_bits_lsb(std::span<const uint8_t> bytes) {
  Bits out(bytes.size() * 8);
  uint8_t* o = out.data();
  for (uint8_t b : bytes)
    for (int i = 0; i < 8; ++i) *o++ = (b >> i) & 1u;
  return out;
}

Bytes bits_to_bytes_lsb(std::span<const uint8_t> bits) {
  MS_CHECK(bits.size() % 8 == 0);
  Bytes out(bits.size() / 8);
  const uint8_t* in = bits.data();
  for (uint8_t& byte : out) {
    unsigned v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= (in[i] != 0 ? 1u : 0u) << i;
    byte = static_cast<uint8_t>(v);
    in += 8;
  }
  return out;
}

double bit_error_rate(std::span<const uint8_t> sent,
                      std::span<const uint8_t> received) {
  if (sent.empty()) return 0.0;
  const std::size_t n = std::min(sent.size(), received.size());
  std::size_t errors = sent.size() - n;  // missing tail counts as errors
  for (std::size_t i = 0; i < n; ++i) errors += (sent[i] != received[i]) ? 1 : 0;
  return static_cast<double>(errors) / static_cast<double>(sent.size());
}

Bits repeat_bits(std::span<const uint8_t> bits, std::size_t factor) {
  MS_CHECK(factor >= 1);
  Bits out;
  out.reserve(bits.size() * factor);
  for (uint8_t b : bits) out.insert(out.end(), factor, b);
  return out;
}

Bits majority_vote(std::span<const uint8_t> bits, std::size_t factor) {
  MS_CHECK(factor >= 1);
  Bits out;
  out.reserve(bits.size() / factor);
  for (std::size_t i = 0; i + factor <= bits.size(); i += factor) {
    std::size_t ones = 0;
    for (std::size_t j = 0; j < factor; ++j) ones += bits[i + j];
    out.push_back(2 * ones >= factor ? 1 : 0);
  }
  return out;
}

Bits bits_from_string(const std::string& s) {
  Bits out;
  out.reserve(s.size());
  for (char c : s) {
    MS_CHECK_MSG(c == '0' || c == '1', "bit strings may contain only 0/1");
    out.push_back(c == '1' ? 1 : 0);
  }
  return out;
}

}  // namespace ms
