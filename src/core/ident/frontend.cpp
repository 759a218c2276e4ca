#include "core/ident/frontend.h"

#include <algorithm>
#include <cmath>

#include "analog/adc.h"
#include "analog/rectifier.h"
#include "common/error.h"
#include "dsp/fir.h"
#include "dsp/ops.h"

namespace ms {

Samples rf_envelope(std::span<const Cf> iq, double sample_rate_hz,
                    const FrontEndConfig& cfg) {
  MS_CHECK(sample_rate_hz > 0.0);
  if (iq.empty()) return {};
  const double cutoff_frac =
      std::min(0.49, cfg.bandwidth_hz / sample_rate_hz);
  const std::vector<float> taps =
      design_lowpass(cutoff_frac, cfg.lowpass_taps);
  const Iq x = fir_filter(iq, taps);

  // FM-to-AM conversion: gain slope of the matching network.  The slope
  // is only linear within the network's passband, so the frequency
  // excursion saturates at ±fm_ref — otherwise the near-±π phase jumps
  // of PSK transitions (whose sign is noise-random) would swing the gain
  // wildly instead of being a small dip.
  //
  // After envelope(), one pass computes what discriminate(), the clamp
  // and both gains compute, with the same operations in the same order.
  // A phase step that provably saturates skips std::arg: one beyond
  // 1.001·θ, where θ is the step of a ±fm_ref tone, lands on ±f_sat
  // whatever rounding atan2f adds (docs/PERF.md §6).  Never with a NaN
  // angle, at re = ±0, or when 1.001·θ reaches π/2.  |x| stays in its
  // own pass: inside this loop GCC hands cabsf its argument through the
  // stack, and the store-forwarding stall cost more than the pass.
  const double scale = sample_rate_hz / (2.0 * M_PI);
  const float f_sat = static_cast<float>(cfg.fm_ref_hz);
  const double theta_sat = 1.001 * 2.0 * M_PI * cfg.fm_ref_hz / sample_rate_hz;
  const bool can_skip = theta_sat > 0.0 && theta_sat < M_PI / 2.0;
  const float tan_sat =
      can_skip ? static_cast<float>(std::tan(theta_sat)) : 0.0f;
  const float peak = static_cast<float>(cfg.peak_voltage);

  Samples env = envelope(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    float f = 0.0f;
    if (i + 1 < x.size()) {
      const Cf prod = x[i + 1] * std::conj(x[i]);
      const float re = prod.real();
      const float im = prod.imag();
      if (can_skip && ((re < 0.0f && !std::isnan(im)) ||
                       (re > 0.0f && std::fabs(im) > re * tan_sat)))
        f = std::signbit(im) ? -f_sat : f_sat;
      else
        f = static_cast<float>(std::arg(prod) * scale);
    }
    f = std::clamp(f, -f_sat, f_sat);
    const double gain =
        1.0 + cfg.fm_to_am_gain * static_cast<double>(f) / cfg.fm_ref_hz;
    env[i] *= static_cast<float>(gain);
    env[i] *= peak;
  }
  return env;
}

Samples acquire_trace(std::span<const Cf> iq, double sample_rate_hz,
                      double adc_rate_hz, const FrontEndConfig& cfg) {
  const Samples env = rf_envelope(iq, sample_rate_hz, cfg);
  const Rectifier rect(cfg.rectifier);
  const Samples v = rect.run(env, sample_rate_hz);
  AdcConfig adc_cfg;
  adc_cfg.sample_rate_hz = adc_rate_hz;
  // §2.3.2 note 3: the reference voltage is tuned to the full-scale range
  // of the input so the quantizer neither clips strong inputs nor wastes
  // codes on weak ones.
  adc_cfg.vref = std::max(0.01, static_cast<double>(peak_abs(v)));
  const Adc adc(adc_cfg);
  return adc.capture(v, sample_rate_hz);
}

}  // namespace ms
