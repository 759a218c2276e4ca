#include "phy/interleaver.h"

#include "common/error.h"
#include "dsp/kernels/interleave_plan.h"

namespace ms {

Bits interleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                    unsigned n_bpsc) {
  MS_CHECK(n_cbps >= 16 && n_cbps % 16 == 0);
  MS_CHECK(bits.size() % n_cbps == 0);
  Bits out(bits.size());
  kernels::interleave_plan(n_cbps, n_bpsc).interleave(bits, out);
  return out;
}

Bits deinterleave_11n(std::span<const uint8_t> bits, unsigned n_cbps,
                      unsigned n_bpsc, KernelPath) {
  MS_CHECK(n_cbps >= 16 && n_cbps % 16 == 0);
  MS_CHECK(bits.size() % n_cbps == 0);
  Bits out(bits.size());
  kernels::interleave_plan(n_cbps, n_bpsc).deinterleave(bits, out);
  return out;
}

}  // namespace ms
