// Additive white Gaussian noise.  Every variant draws its Gaussian
// values through Rng::normals in stack blocks: the same values in the
// same order as one rng.normal(0.0, sigma) per part, imaginary part
// first (docs/PERF.md §8).
#pragma once

#include <span>

#include "common/rng.h"
#include "dsp/iq.h"

namespace ms {

/// Add complex AWGN with the given noise power (variance split evenly
/// between I and Q).  Throws ms::Error naming `noise_power` when it is
/// negative or not finite; 0 is valid.
Iq add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng);

/// Add complex AWGN so the resulting SNR (signal mean power over noise
/// power) equals `snr_db`.  Silence passes through unchanged; a signal
/// holding a NaN or an infinity makes a non-finite noise power, which
/// add_noise_power rejects.
Iq add_awgn(std::span<const Cf> x, double snr_db, Rng& rng);

/// Pure complex noise of length n and total power `noise_power`, which
/// must be finite and >= 0 (ms::Error naming it otherwise).
Iq complex_noise(std::size_t n, double noise_power, Rng& rng);

}  // namespace ms
