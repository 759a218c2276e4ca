#include "dsp/correlate.h"

#include <cmath>

#include "common/error.h"
#include "dsp/ops.h"

namespace ms {

double pearson(std::span<const float> a, std::span<const float> b) {
  MS_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xa = a[i] - ma;
    const double xb = b[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

Samples sliding_correlation(std::span<const float> x,
                            std::span<const float> tmpl) {
  MS_CHECK(!tmpl.empty());
  if (x.size() < tmpl.size()) return {};
  Samples out(x.size() - tmpl.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(pearson(x.subspan(i, tmpl.size()), tmpl));
  return out;
}

double sign_correlation(std::span<const int8_t> a, std::span<const int8_t> b) {
  MS_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  // Sum of products of ±1 values == (#agree - #disagree); adder-only in HW.
  long acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += static_cast<int>(a[i]) * static_cast<int>(b[i]);
  return static_cast<double>(acc) / static_cast<double>(a.size());
}

}  // namespace ms
