// Power spectral density estimation (Welch's method) — used to verify
// occupied bandwidths, frequency-shift images, and spectral masks in
// tests (test-only: linked through ms_test_support, never by src/).
#pragma once

#include <span>
#include <vector>

#include "dsp/iq.h"

namespace ms {

struct PsdConfig {
  std::size_t segment_len = 256;  ///< power of two
  double overlap = 0.5;           ///< segment overlap fraction [0, 1)
};

struct Psd {
  std::vector<double> power;  ///< linear power per bin, DC-centered
  double bin_hz = 0.0;        ///< frequency resolution

  /// Frequency (Hz) of bin i (negative for the lower half).
  double frequency(std::size_t i) const;
  /// Index of the strongest bin.
  std::size_t peak_bin() const;
  /// Total power within [lo_hz, hi_hz].
  double band_power(double lo_hz, double hi_hz) const;
  /// Two-sided bandwidth containing `fraction` of the total power,
  /// centered on the spectrum's mean frequency.
  double occupied_bandwidth(double fraction = 0.99) const;
};

/// Welch PSD of a complex waveform (Hann window, averaged periodograms).
/// The result is DC-centered: power[0] ↔ −fs/2, power[n/2] ↔ DC.
Psd welch_psd(std::span<const Cf> x, double sample_rate_hz,
              const PsdConfig& cfg = {});

}  // namespace ms
