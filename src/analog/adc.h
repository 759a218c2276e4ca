// Tag ADC model (AD9235-class): sample-rate conversion, reference-voltage
// full-scale, n-bit quantization, and FPGA-controlled enable duty-cycling
// (§2.3.2 notes 1 and 3).
#pragma once

#include <span>

#include "dsp/iq.h"

namespace ms {

struct AdcConfig {
  double sample_rate_hz = 20e6;  ///< 20 / 10 / 2.5 / 1 Msps in the paper
  unsigned bits = 9;             ///< the paper's 9-bit samples
  double vref = 1.0;             ///< full-scale input voltage
  bool enabled = true;           ///< EN signal from the FPGA
};

class Adc {
 public:
  explicit Adc(AdcConfig cfg);

  /// Digitize an analog trace sampled at `input_rate_hz`: resample to the
  /// ADC rate, clamp to [0, vref], and quantize to 2^bits codes.  Returns
  /// the quantized voltages.  An ADC with EN low returns an empty trace.
  Samples capture(std::span<const float> analog_v, double input_rate_hz) const;

  /// Raw integer codes for the same capture.
  std::vector<unsigned> capture_codes(std::span<const float> analog_v,
                                      double input_rate_hz) const;

  const AdcConfig& config() const { return cfg_; }

 private:
  AdcConfig cfg_;
};

}  // namespace ms
