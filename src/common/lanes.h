// Two-lane double arithmetic for the bit-exact batch kernels
// (Rng::normals, envelope()).  IEEE 754 rounds every lane of a vector
// division or square root exactly as it rounds the scalar operation, so
// a lane result is the scalar result bit for bit.
#pragma once

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ms::lanes {

using D2 = double __attribute__((vector_size(16)));

/// Correctly rounded square root of each lane.
inline D2 sqrt(D2 x) {
#if defined(__SSE2__)
  return _mm_sqrt_pd(x);
#else
  return D2{std::sqrt(x[0]), std::sqrt(x[1])};
#endif
}

}  // namespace ms::lanes
