#include "analog/adc.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/resample.h"

namespace ms {

Adc::Adc(AdcConfig cfg) : cfg_(cfg) {
  MS_CHECK(cfg_.sample_rate_hz > 0.0);
  MS_CHECK(cfg_.bits >= 1 && cfg_.bits <= 16);
  MS_CHECK(cfg_.vref > 0.0);
}

std::vector<unsigned> Adc::capture_codes(std::span<const float> analog_v,
                                         double input_rate_hz) const {
  MS_CHECK(input_rate_hz > 0.0);
  if (!cfg_.enabled) return {};
  // Track/hold + input RC integrate over the sample period, so
  // decimation averages rather than picking instantaneous points.
  const Samples at_rate =
      resample_average(analog_v, cfg_.sample_rate_hz / input_rate_hz);
  const unsigned max_code = (1u << cfg_.bits) - 1;
  std::vector<unsigned> codes(at_rate.size());
  for (std::size_t i = 0; i < at_rate.size(); ++i) {
    const double v = std::clamp(static_cast<double>(at_rate[i]), 0.0, cfg_.vref);
    codes[i] = static_cast<unsigned>(
        std::lround(v / cfg_.vref * static_cast<double>(max_code)));
  }
  return codes;
}

Samples Adc::capture(std::span<const float> analog_v,
                     double input_rate_hz) const {
  const std::vector<unsigned> codes = capture_codes(analog_v, input_rate_hz);
  const unsigned max_code = (1u << cfg_.bits) - 1;
  Samples out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i)
    out[i] = static_cast<float>(static_cast<double>(codes[i]) /
                                static_cast<double>(max_code) * cfg_.vref);
  return out;
}

}  // namespace ms
