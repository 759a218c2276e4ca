// Hamming distance between bit vectors: how the constellation, Viterbi
// and MCS tests count the bits two labels or decodes differ in
// (test-only: linked through ms_test_support, never by src/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ms {

/// Number of positions where the two equal-length bit vectors differ.
/// Throws ms::Error when the lengths differ.
std::size_t hamming_distance(std::span<const uint8_t> a,
                             std::span<const uint8_t> b);

}  // namespace ms
