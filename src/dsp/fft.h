// Radix-2 decimation-in-time FFT.
//
// 802.11n OFDM needs only 64-point transforms, but the implementation is a
// general power-of-two FFT so spectral analysis utilities can reuse it.
// Conventions: fft_inplace() is unnormalized, ifft_inplace() and ifft()
// scale by 1/N, so the inverse undoes the forward transform.
#pragma once

#include <span>

#include "dsp/iq.h"

namespace ms {

/// In-place forward FFT.  Requires a power-of-two length >= 1.
void fft_inplace(Iq& x);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_inplace(Iq& x);

/// Out-of-place inverse FFT.
Iq ifft(std::span<const Cf> x);

/// True if n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace ms
