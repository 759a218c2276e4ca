#include "core/overlay/fec.h"

#include <algorithm>

#include "common/error.h"

namespace ms {

namespace {

// Generator: data bits d0..d3, parity p0 = d0^d1^d3, p1 = d0^d2^d3,
// p2 = d1^d2^d3; codeword order [p0 p1 d0 p2 d1 d2 d3] (systematic
// Hamming with syndrome = error position).
void encode_block(const uint8_t* d, uint8_t* cw) {
  cw[0] = d[0] ^ d[1] ^ d[3];
  cw[1] = d[0] ^ d[2] ^ d[3];
  cw[2] = d[0];
  cw[3] = d[1] ^ d[2] ^ d[3];
  cw[4] = d[1];
  cw[5] = d[2];
  cw[6] = d[3];
}

void decode_block(const uint8_t* c, uint8_t* d) {
  // Syndrome bits: s0 checks positions 1,3,5,7; s1: 2,3,6,7; s2: 4..7
  // (1-indexed); the syndrome value is the error position.
  uint8_t cw[7];
  for (int i = 0; i < 7; ++i) cw[i] = c[i] & 1u;
  const unsigned s0 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
  const unsigned s1 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
  const unsigned s2 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
  const unsigned syndrome = s0 | (s1 << 1) | (s2 << 2);
  if (syndrome != 0) cw[syndrome - 1] ^= 1u;  // correct the flagged bit
  d[0] = cw[2];
  d[1] = cw[4];
  d[2] = cw[5];
  d[3] = cw[6];
}

}  // namespace

Bits hamming74_encode(std::span<const uint8_t> data) {
  Bits out((data.size() + 3) / 4 * 7);
  uint8_t* cw = out.data();
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4, cw += 7) encode_block(&data[i], cw);
  if (i < data.size()) {
    uint8_t last[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; i + j < data.size(); ++j) last[j] = data[i + j];
    encode_block(last, cw);
  }
  return out;
}

Bits hamming74_decode(std::span<const uint8_t> coded) {
  MS_CHECK(coded.size() % 7 == 0);
  Bits out(coded.size() / 7 * 4);
  for (std::size_t i = 0, o = 0; i < coded.size(); i += 7, o += 4)
    decode_block(&coded[i], &out[o]);
  return out;
}

Bits block_interleave(std::span<const uint8_t> bits, std::size_t rows) {
  MS_CHECK(rows >= 1);
  const std::size_t cols = (bits.size() + rows - 1) / rows;
  Bits out(rows * cols, 0);  // the tail of the rectangle stays zero padding
  // Row r holds input bits [r·cols, (r+1)·cols); column-wise reading puts
  // input (r, c) at output c·rows + r.
  for (std::size_t r = 0; r * cols < bits.size(); ++r) {
    const std::size_t begin = r * cols;
    const std::size_t end = std::min(begin + cols, bits.size());
    for (std::size_t i = begin, o = r; i < end; ++i, o += rows) out[o] = bits[i];
  }
  return out;
}

Bits block_deinterleave(std::span<const uint8_t> bits, std::size_t rows) {
  MS_CHECK(rows >= 1);
  MS_CHECK(bits.size() % rows == 0);
  const std::size_t cols = bits.size() / rows;
  Bits out(bits.size());
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      out[r * cols + c] = bits[c * rows + r];
  return out;
}

std::size_t TagFec::coded_size(std::size_t n_data_bits) const {
  const std::size_t blocks = (n_data_bits + 3) / 4;
  const std::size_t coded = blocks * 7;
  const std::size_t cols = (coded + interleave_rows - 1) / interleave_rows;
  return interleave_rows * cols;
}

Bits TagFec::encode(std::span<const uint8_t> data) const {
  return block_interleave(hamming74_encode(data), interleave_rows);
}

Bits TagFec::decode(std::span<const uint8_t> coded,
                    std::size_t n_data_bits) const {
  Bits deint = block_deinterleave(coded, interleave_rows);
  deint.resize((n_data_bits + 3) / 4 * 7);  // drop interleaver padding
  Bits out = hamming74_decode(deint);
  out.resize(n_data_bits);
  return out;
}

}  // namespace ms
