// Differential gate for tag frame coding.  The link layer frames, CRCs,
// Hamming-codes and interleaves every frame it sends (LinkSession in
// core/tag/), so those loops were rewritten to index their outputs
// directly and allocate once.  Every output must still be exactly the
// bit-serial loops', bit for bit, on every input: all lengths and
// interleaver shapes the tag uses and more, encoder inputs of 0/1 (the
// Bits contract in common/bits.h), decoder and packer inputs of
// arbitrary bytes, every payload length, and damaged frames.  Those
// loops live on here, verbatim, as the oracles.  The last two cases pin
// the coded length that LinkSession computes without encoding.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/overlay/fec.h"
#include "core/overlay/frame.h"
#include "core/tag/link_session.h"
#include "diff_harness.h"
#include "phy/crc.h"

namespace ms {
namespace {

namespace oracle {

// --- phy/crc.cpp -------------------------------------------------------

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<std::uint8_t>(crc << 1);
  }
  return crc;
}

// --- common/bits.cpp ---------------------------------------------------

Bits bytes_to_bits_lsb(std::span<const uint8_t> bytes) {
  Bits out;
  out.reserve(bytes.size() * 8);
  for (uint8_t b : bytes)
    for (int i = 0; i < 8; ++i) out.push_back((b >> i) & 1u);
  return out;
}

Bytes bits_to_bytes_lsb(std::span<const uint8_t> bits) {
  MS_CHECK(bits.size() % 8 == 0);
  Bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  return out;
}

// --- core/overlay/fec.cpp ----------------------------------------------

// Generator: data bits d0..d3, parity p0 = d0^d1^d3, p1 = d0^d2^d3,
// p2 = d1^d2^d3; codeword order [p0 p1 d0 p2 d1 d2 d3] (systematic
// Hamming with syndrome = error position).
void encode_block(const uint8_t* d, Bits& out) {
  const uint8_t p0 = d[0] ^ d[1] ^ d[3];
  const uint8_t p1 = d[0] ^ d[2] ^ d[3];
  const uint8_t p2 = d[1] ^ d[2] ^ d[3];
  const uint8_t cw[7] = {p0, p1, d[0], p2, d[1], d[2], d[3]};
  out.insert(out.end(), cw, cw + 7);
}

void decode_block(const uint8_t* c, Bits& out) {
  // Syndrome bits: s0 checks positions 1,3,5,7; s1: 2,3,6,7; s2: 4..7
  // (1-indexed); the syndrome value is the error position.
  uint8_t cw[7];
  for (int i = 0; i < 7; ++i) cw[i] = c[i] & 1u;
  const unsigned s0 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
  const unsigned s1 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
  const unsigned s2 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
  const unsigned syndrome = s0 | (s1 << 1) | (s2 << 2);
  if (syndrome != 0) cw[syndrome - 1] ^= 1u;  // correct the flagged bit
  out.push_back(cw[2]);
  out.push_back(cw[4]);
  out.push_back(cw[5]);
  out.push_back(cw[6]);
}

Bits hamming74_encode(std::span<const uint8_t> data) {
  Bits out;
  out.reserve((data.size() + 3) / 4 * 7);
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) encode_block(&data[i], out);
  if (i < data.size()) {
    uint8_t last[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; i + j < data.size(); ++j) last[j] = data[i + j];
    encode_block(last, out);
  }
  return out;
}

Bits hamming74_decode(std::span<const uint8_t> coded) {
  MS_CHECK(coded.size() % 7 == 0);
  Bits out;
  out.reserve(coded.size() / 7 * 4);
  for (std::size_t i = 0; i < coded.size(); i += 7) decode_block(&coded[i], out);
  return out;
}

Bits block_interleave(std::span<const uint8_t> bits, std::size_t rows) {
  MS_CHECK(rows >= 1);
  const std::size_t cols = (bits.size() + rows - 1) / rows;
  Bits out;
  out.reserve(rows * cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t idx = r * cols + c;
      out.push_back(idx < bits.size() ? bits[idx] : 0);
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

// --- core/overlay/frame.cpp (TagFrame::to_bits / from_bits) ------------

void push_value(Bits& out, unsigned value, unsigned n_bits) {
  for (unsigned i = 0; i < n_bits; ++i) out.push_back((value >> i) & 1u);
}
unsigned pop_value(std::span<const uint8_t> bits, std::size_t& pos,
                   unsigned n_bits) {
  unsigned v = 0;
  for (unsigned i = 0; i < n_bits; ++i)
    v |= static_cast<unsigned>(bits[pos++] & 1u) << i;
  return v;
}

Bits to_bits(const TagFrame& frame) {
  const uint8_t tag_id = frame.tag_id;
  const uint8_t sequence = frame.sequence;
  const bool last_segment = frame.last_segment;
  const Bytes& payload = frame.payload;
  MS_CHECK(tag_id < 16);
  MS_CHECK(sequence < 16);
  MS_CHECK_MSG(payload.size() <= TagFrame::kMaxPayload,
               "frame payload too long");
  Bits out;
  out.reserve(TagFrame::frame_bits(payload.size()));
  push_value(out, tag_id, 4);
  push_value(out, sequence, 4);
  push_value(out, last_segment ? 1 : 0, 1);
  push_value(out, static_cast<unsigned>(payload.size()), 5);
  const Bits body = bytes_to_bits_lsb(payload);
  out.insert(out.end(), body.begin(), body.end());
  // CRC over header nibble-fields + payload: pack header into one byte
  // pair for the checksum.
  Bytes crc_input = {static_cast<uint8_t>(tag_id | (sequence << 4)),
                     static_cast<uint8_t>((last_segment ? 0x20 : 0) |
                                          payload.size())};
  crc_input.insert(crc_input.end(), payload.begin(), payload.end());
  push_value(out, crc8(crc_input), 8);
  return out;
}

std::optional<TagFrame> from_bits(std::span<const uint8_t> bits) {
  if (bits.size() < TagFrame::frame_bits(0)) return std::nullopt;
  std::size_t pos = 0;
  TagFrame f;
  f.tag_id = static_cast<uint8_t>(pop_value(bits, pos, 4));
  f.sequence = static_cast<uint8_t>(pop_value(bits, pos, 4));
  f.last_segment = pop_value(bits, pos, 1) != 0;
  const unsigned len = pop_value(bits, pos, 5);
  if (len > TagFrame::kMaxPayload || bits.size() < TagFrame::frame_bits(len))
    return std::nullopt;
  Bits body(bits.begin() + pos, bits.begin() + pos + len * 8);
  pos += len * 8;
  f.payload = bits_to_bytes_lsb(body);
  const unsigned rx_crc = pop_value(bits, pos, 8);
  Bytes crc_input = {static_cast<uint8_t>(f.tag_id | (f.sequence << 4)),
                     static_cast<uint8_t>((f.last_segment ? 0x20 : 0) | len)};
  crc_input.insert(crc_input.end(), f.payload.begin(), f.payload.end());
  if (crc8(crc_input) != rx_crc) return std::nullopt;
  return f;
}

}  // namespace oracle

// Encoder inputs come from Rng::bits (0/1 only, the Bits contract);
// decoder and packer inputs from Rng::bytes (anything a caller may pass).
// 480 bits covers the 476 that Hamming(7,4) makes of a framed 31-byte
// payload, the longest input the link layer interleaves.
constexpr std::size_t kMaxBits = 480;
constexpr std::size_t kMaxRows = 16;

void expect_same_frame(const std::optional<TagFrame>& fast,
                       const std::optional<TagFrame>& ref,
                       const std::string& ctx) {
  ASSERT_EQ(fast.has_value(), ref.has_value()) << ctx;
  if (!ref) return;
  EXPECT_EQ(fast->tag_id, ref->tag_id) << ctx;
  EXPECT_EQ(fast->sequence, ref->sequence) << ctx;
  EXPECT_EQ(fast->last_segment, ref->last_segment) << ctx;
  EXPECT_EQ(fast->payload, ref->payload) << ctx;
}

TagFrame random_frame(Rng& rng, std::size_t payload_bytes) {
  TagFrame f;
  f.tag_id = static_cast<uint8_t>(rng.uniform_int(16));
  f.sequence = static_cast<uint8_t>(rng.uniform_int(16));
  f.last_segment = rng.chance(0.5);
  f.payload = rng.bytes(payload_bytes);
  return f;
}

TEST(TagCodingDiff, Crc8OnArbitraryBytes) {
  for (unsigned b = 0; b < 256; ++b) {
    const Bytes one = {static_cast<uint8_t>(b)};
    ASSERT_EQ(crc8(one), oracle::crc8(one)) << "byte " << b;
  }
  Rng rng(difftest::kSeed + 20);
  for (std::size_t n = 0; n <= 2 + TagFrame::kMaxPayload + 8; ++n)
    for (int rep = 0; rep < 8; ++rep) {
      const Bytes data = rng.bytes(n);
      ASSERT_EQ(crc8(data), oracle::crc8(data))
          << difftest::ctx("len=%zu rep=%d", n, rep);
    }
}

TEST(TagCodingDiff, HammingEncodeEveryLength) {
  Rng rng(difftest::kSeed + 21);
  for (std::size_t n = 0; n <= kMaxBits; ++n) {
    const Bits data = rng.bits(n);
    difftest::expect_same_bits(hamming74_encode(data),
                               oracle::hamming74_encode(data),
                               "hamming74_encode", difftest::ctx("n=%zu", n));
  }
}

TEST(TagCodingDiff, HammingDecodeArbitraryBytes) {
  Rng rng(difftest::kSeed + 22);
  for (std::size_t blocks = 0; blocks * 7 <= kMaxBits + 7; ++blocks)
    for (int rep = 0; rep < 4; ++rep) {
      const Bytes coded = rng.bytes(blocks * 7);
      difftest::expect_same_bits(
          hamming74_decode(coded), oracle::hamming74_decode(coded),
          "hamming74_decode", difftest::ctx("blocks=%zu rep=%d", blocks, rep));
    }
  // Every 7-bit word, so every syndrome corrects the same position.
  for (unsigned w = 0; w < 128; ++w) {
    Bits cw(7);
    for (unsigned i = 0; i < 7; ++i) cw[i] = (w >> i) & 1u;
    difftest::expect_same_bits(hamming74_decode(cw),
                               oracle::hamming74_decode(cw),
                               "hamming74_decode", difftest::ctx("word=%u", w));
  }
}

TEST(TagCodingDiff, InterleaveEveryLengthAndRowCount) {
  Rng rng(difftest::kSeed + 23);
  for (std::size_t rows = 1; rows <= kMaxRows; ++rows)
    for (std::size_t n = 0; n <= kMaxBits; ++n) {
      const std::string ctx = difftest::ctx("rows=%zu n=%zu", rows, n);
      const Bits bits = rng.bits(n);
      difftest::expect_same_bits(block_interleave(bits, rows),
                                 oracle::block_interleave(bits, rows),
                                 "block_interleave", ctx);
      difftest::expect_same_bits(
          TagFec{rows}.encode(bits),
          oracle::block_interleave(oracle::hamming74_encode(bits), rows),
          "TagFec::encode", ctx);
    }
}

TEST(TagCodingDiff, DeinterleaveArbitraryBytes) {
  Rng rng(difftest::kSeed + 24);
  for (std::size_t rows = 1; rows <= kMaxRows; ++rows)
    for (std::size_t cols = 0; rows * cols <= kMaxBits + kMaxRows; ++cols) {
      const std::string ctx = difftest::ctx("rows=%zu cols=%zu", rows, cols);
      const Bytes coded = rng.bytes(rows * cols);
      difftest::expect_same_bits(block_deinterleave(coded, rows),
                                 oracle::block_deinterleave(coded, rows),
                                 "block_deinterleave", ctx);
      // TagFec::decode as the link layer calls it: every whole block.
      const std::size_t data_bits = coded.size() / 7 * 4;
      Bits deint = oracle::block_deinterleave(coded, rows);
      deint.resize(data_bits / 4 * 7);
      difftest::expect_same_bits(TagFec{rows}.decode(coded, data_bits),
                                 oracle::hamming74_decode(deint),
                                 "TagFec::decode", ctx);
    }
}

TEST(TagCodingDiff, BitPackersOnArbitraryBytes) {
  Rng rng(difftest::kSeed + 25);
  for (std::size_t n = 0; n <= kMaxBits / 8 + 1; ++n) {
    const Bytes bytes = rng.bytes(n);
    difftest::expect_same_bits(bytes_to_bits_lsb(bytes),
                               oracle::bytes_to_bits_lsb(bytes),
                               "bytes_to_bits_lsb", difftest::ctx("n=%zu", n));
  }
  // The packer treats any nonzero element as a 1 bit.
  for (std::size_t n = 0; n <= kMaxBits; n += 8)
    for (int rep = 0; rep < 4; ++rep) {
      Bytes bits = rng.bytes(n);
      if (rep == 0)
        for (uint8_t& b : bits) b &= 1u;  // the 0/1 contract
      difftest::expect_same_bits(bits_to_bytes_lsb(bits),
                                 oracle::bits_to_bytes_lsb(bits),
                                 "bits_to_bytes_lsb",
                                 difftest::ctx("n=%zu rep=%d", n, rep));
    }
}

TEST(TagCodingDiff, FrameEveryPayloadLength) {
  Rng rng(difftest::kSeed + 26);
  for (std::size_t p = 0; p <= TagFrame::kMaxPayload; ++p)
    for (int rep = 0; rep < 16; ++rep) {
      const std::string ctx = difftest::ctx("payload=%zu rep=%d", p, rep);
      const TagFrame f = random_frame(rng, p);
      const Bits bits = f.to_bits();
      difftest::expect_same_bits(bits, oracle::to_bits(f), "TagFrame::to_bits",
                                 ctx);
      expect_same_frame(TagFrame::from_bits(bits), oracle::from_bits(bits),
                        ctx);
      ASSERT_TRUE(TagFrame::from_bits(bits).has_value()) << ctx;
    }
}

TEST(TagCodingDiff, FrameParseOfDamagedBits) {
  Rng rng(difftest::kSeed + 27);
  for (std::size_t p = 0; p <= TagFrame::kMaxPayload; ++p)
    for (int rep = 0; rep < 8; ++rep) {
      const Bits clean = oracle::to_bits(random_frame(rng, p));
      const auto check = [&](std::span<const uint8_t> bits, const char* how,
                             std::size_t k) {
        expect_same_frame(
            TagFrame::from_bits(bits), oracle::from_bits(bits),
            difftest::ctx("payload=%zu rep=%d %s k=%zu", p, rep, how, k));
      };
      // One flipped bit at every position, then a few random multi-flips.
      for (std::size_t i = 0; i < clean.size(); ++i) {
        Bits bits = clean;
        bits[i] ^= 1u;
        check(bits, "flip", i);
      }
      for (std::size_t k = 2; k <= 6; ++k) {
        Bits bits = clean;
        for (std::size_t j = 0; j < k; ++j)
          bits[rng.uniform_int(bits.size())] ^= 1u;
        check(bits, "multiflip", k);
      }
      // Every truncation, and zero padding as the decoder leaves it.
      for (std::size_t n = 0; n < clean.size(); ++n)
        check(std::span<const uint8_t>(clean).first(n), "truncate", n);
      for (std::size_t pad = 1; pad <= 16; ++pad) {
        Bits bits = clean;
        bits.resize(clean.size() + pad, 0);
        check(bits, "pad", pad);
      }
      // Arbitrary bytes where bits belong: from_bits masks with & 1 and
      // the payload packer treats nonzero as 1.
      Bytes noisy = clean;
      for (uint8_t& b : noisy) b = static_cast<uint8_t>(b | (rng() & 0xfeu));
      check(noisy, "bytes", 0);
    }
}

/// The early undersized-slot check in LinkSession::run_trace decides from
/// the coded length before anything is encoded.  That length must be
/// exactly the size of what gets encoded later, for every payload and
/// every protection the tag can use.
TEST(TagCodingDiff, CodedLengthFormulaMatchesEncodedSize) {
  Rng rng(difftest::kSeed + 28);
  for (std::size_t p = 0; p <= TagFrame::kMaxPayload; ++p)
    for (bool fec_on : {false, true})
      for (std::size_t rows : {1u, 7u, 16u})
        for (std::size_t r = 1; r <= 3; ++r) {
          const TagFrame f = random_frame(rng, p);
          const TagFec fec{rows};
          const std::size_t raw = TagFrame::frame_bits(p);
          const std::size_t formula =
              (fec_on ? fec.coded_size(raw) : raw) * r;
          const Bits framed = f.to_bits();
          const Bits coded =
              repeat_bits(fec_on ? fec.encode(framed) : framed, r);
          EXPECT_EQ(formula, coded.size()) << difftest::ctx(
              "payload=%zu fec=%d rows=%zu repeats=%zu", p, fec_on ? 1 : 0,
              rows, r);
        }
}

/// frame_payload_budget() decides from the same coded length.  Its budget
/// must be the largest payload whose encoded frame fits the slot, at
/// every slot size, and a slot too small for one byte must be refused.
TEST(TagCodingDiff, PayloadBudgetIsTheLargestEncodedFrameThatFits) {
  Rng rng(difftest::kSeed + 29);
  const LinkSessionConfig defaults;
  const std::size_t bits_per_sequence =
      LinkSession(defaults).slot_capacity_bits(defaults.fixed.gamma) /
      defaults.sequences_per_slot;
  for (bool fec_on : {false, true})
    for (std::size_t rows : {1u, 7u, 16u})
      for (unsigned r = 1; r <= 3; ++r) {
        std::vector<std::size_t> encoded(TagFrame::kMaxPayload + 1);
        for (std::size_t p = 1; p <= TagFrame::kMaxPayload; ++p) {
          const Bits framed = random_frame(rng, p).to_bits();
          encoded[p] =
              repeat_bits(fec_on ? TagFec{rows}.encode(framed) : framed, r)
                  .size();
        }
        for (std::size_t seqs = 1; seqs <= 400; ++seqs) {
          LinkSessionConfig cfg = defaults;
          cfg.fec_enabled = fec_on;
          cfg.interleave_rows = rows;
          cfg.adaptation_enabled = false;
          cfg.fixed.fec_repeats = r;
          cfg.sequences_per_slot = seqs;
          std::size_t fits = 0;
          for (std::size_t p = 1; p <= TagFrame::kMaxPayload; ++p)
            if (encoded[p] <= seqs * bits_per_sequence) fits = p;
          const std::string ctx = difftest::ctx(
              "fec=%d rows=%zu repeats=%u sequences=%zu", fec_on ? 1 : 0, rows,
              r, seqs);
          if (fits == 0) {
            EXPECT_THROW(LinkSession{cfg}, Error) << ctx;
          } else {
            EXPECT_EQ(LinkSession(cfg).frame_payload_budget(cfg.fixed), fits)
                << ctx;
          }
        }
      }
}

}  // namespace
}  // namespace ms
