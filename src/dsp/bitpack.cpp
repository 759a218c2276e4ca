#include "dsp/bitpack.h"

#include <bit>

#include "common/error.h"

namespace ms::bitpack {

PackedVec pack_signs(std::span<const std::int8_t> signs) {
  PackedVec v;
  v.bits = signs.size();
  v.words.assign(words_for(v.bits), 0);
  for (std::size_t i = 0; i < v.bits; ++i)
    if (signs[i] > 0) v.words[i / 64] |= (std::uint64_t{1} << (i % 64));
  return v;
}

void pack_threshold(std::span<const float> x, double thr,
                    std::span<std::uint64_t> out) {
  MS_CHECK(out.size() >= words_for(x.size()));
  std::size_t w = 0;
  std::uint64_t word = 0;
  std::uint64_t bit = 1;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] >= thr) word |= bit;
    bit <<= 1;
    if (bit == 0) {
      out[w++] = word;
      word = 0;
      bit = 1;
    }
  }
  if (x.size() % 64 != 0) out[w++] = word;
}

std::vector<double> sliding_sign_correlation(const PackedVec& stream,
                                             const PackedVec& tmpl) {
  const std::size_t len = tmpl.bits;
  if (len == 0 || stream.bits < len) return {};
  std::vector<double> out;
  out.reserve(stream.bits - len + 1);
  const std::vector<std::uint64_t>& sw = stream.words;
  const std::size_t n_words = words_for(len);
  const std::uint64_t mask = tail_mask(len);

  std::vector<std::uint64_t> window(n_words);
  for (std::size_t off = 0; off + len <= stream.bits; ++off) {
    const std::size_t word0 = off / 64;
    const unsigned shift = off % 64;
    // Funnel-shift the stream into template alignment, 64 bits per word.
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t lo = sw[word0 + w] >> shift;
      if (shift != 0 && word0 + w + 1 < sw.size())
        lo |= sw[word0 + w + 1] << (64 - shift);
      window[w] = lo;
    }
    std::size_t disagreements = 0;
    for (std::size_t w = 0; w + 1 < n_words; ++w)
      disagreements +=
          static_cast<std::size_t>(std::popcount(window[w] ^ tmpl.words[w]));
    disagreements += static_cast<std::size_t>(
        std::popcount((window[n_words - 1] ^ tmpl.words[n_words - 1]) & mask));
    out.push_back(
        (static_cast<double>(len) - 2.0 * static_cast<double>(disagreements)) /
        static_cast<double>(len));
  }
  return out;
}

}  // namespace ms::bitpack
