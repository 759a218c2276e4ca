// Fig 4: (a) the clamp circuit produces higher output voltage than the
// basic rectifier; (b) our high-bandwidth rectifier tracks an 802.11b
// envelope where the WISP rectifier smears it.
#include <cstdio>

#include "analog/rectifier.h"
#include "bench_util.h"
#include "core/ident/frontend.h"
#include "core/ident/templates.h"
#include "dsp/ops.h"
#include "experiments.h"

int ms::bench::fig4_rectifier(const CliOptions&) {
  using namespace ms;
  bench::title("Fig 4a", "clamped vs basic rectifier output (steady carrier)");
  std::printf("%-12s %14s %14s\n", "input (V)", "basic (V)", "clamped (V)");
  bench::rule();
  const Rectifier basic(basic_rectifier());
  const Rectifier ours(multiscatter_rectifier());
  for (double vin : {0.2, 0.3, 0.4, 0.5, 0.7, 1.0}) {
    const Samples in(4000, static_cast<float>(vin));
    std::printf("%-12.2f %14.3f %14.3f\n", vin, basic.run(in, 100e6).back(),
                ours.run(in, 100e6).back());
  }
  bench::note("clamp turns on below the diode threshold and roughly doubles"
              " the drive (paper Fig 4a)");

  bench::title("Fig 4b", "802.11b envelope through ours vs WISP");
  const Iq preamble = clean_preamble(Protocol::WifiB, true);
  const double rate = native_sample_rate(Protocol::WifiB);
  const Samples env = rf_envelope(preamble, rate, FrontEndConfig{});
  const Rectifier wisp(wisp_rectifier());
  const Samples v_ours = ours.run(env, rate);
  const Samples v_wisp = wisp.run(env, rate);
  // Tracking fidelity: correlation of rectifier output with the true
  // envelope, and the residual ripple it preserves.
  auto fidelity = [&](const Samples& v) {
    const Samples n_env = normalize(env);
    const Samples n_v = normalize(v);
    double corr = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) corr += n_env[i] * n_v[i];
    return corr / static_cast<double>(v.size());
  };
  std::printf("%-22s %12s %12s\n", "", "ours", "WISP");
  bench::rule();
  std::printf("%-22s %12.3f %12.3f\n", "envelope correlation", fidelity(v_ours),
              fidelity(v_wisp));
  std::printf("%-22s %12.4f %12.4f\n", "output stddev (V)", stddev(v_ours),
              stddev(v_wisp));
  std::printf("%-22s %12.3f %12.3f\n", "output mean (V)", mean(v_ours),
              mean(v_wisp));
  bench::note("paper Fig 4b: WISP output is distorted/flattened for 802.11b;"
              " ours follows the high-bandwidth envelope");
  return 0;
}
