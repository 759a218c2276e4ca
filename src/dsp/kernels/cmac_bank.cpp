#include "dsp/kernels/cmac_bank.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"

namespace ms::kernels {

void CmacBank::reset(std::size_t n_candidates, std::size_t length) {
  MS_CHECK(n_candidates <= kMaxCandidates);
  n_candidates_ = n_candidates;
  length_ = length;
  re_.assign(n_candidates * length, 0.0f);
  im_.assign(n_candidates * length, 0.0f);
}

void CmacBank::set_candidate(std::size_t c, std::span<const Cf> ref) {
  MS_CHECK(c < n_candidates_);
  MS_CHECK(ref.size() == length_);
  for (std::size_t k = 0; k < length_; ++k) {
    re_[k * n_candidates_ + c] = ref[k].real();
    im_[k * n_candidates_ + c] = -ref[k].imag();  // conj, baked in
  }
}

void CmacBank::correlate(std::span<const Cf> seg, std::span<float> out_re,
                         std::span<float> out_im) const {
  MS_CHECK(out_re.size() == n_candidates_ && out_im.size() == n_candidates_);
  const std::size_t nc = n_candidates_;
  const std::size_t n = std::min(seg.size(), length_);
  std::fill(out_re.begin(), out_re.end(), 0.0f);
  std::fill(out_im.begin(), out_im.end(), 0.0f);
  float* __restrict acc_re = out_re.data();
  float* __restrict acc_im = out_im.data();
  const float* __restrict b_re = re_.data();
  const float* __restrict b_im = im_.data();
  // Candidate blocks of 4, samples inner: each acc[c] accumulates in
  // the same k order as the scalar oracle, so every accumulation chain
  // is bit-identical — blocking only decides which chains run
  // concurrently.  A fixed-width block keeps the 8 accumulators in
  // registers across the whole sample loop (a runtime-width inner loop
  // would spill them to memory on every sample).
  std::size_t c0 = 0;
  for (; c0 + 4 <= nc; c0 += 4) {
    const float* __restrict blk_re = b_re + c0;
    const float* __restrict blk_im = b_im + c0;
    float ar0 = 0.0f, ar1 = 0.0f, ar2 = 0.0f, ar3 = 0.0f;
    float ai0 = 0.0f, ai1 = 0.0f, ai2 = 0.0f, ai3 = 0.0f;
    for (std::size_t k = 0; k < n; ++k) {
      const Cf s = seg[k];  // ASan checks a whole load, not .real()
      const float s_re = s.real();
      const float s_im = s.imag();
      const float* row_re = blk_re + k * nc;
      const float* row_im = blk_im + k * nc;
      ar0 += s_re * row_re[0] - s_im * row_im[0];
      ai0 += s_re * row_im[0] + s_im * row_re[0];
      ar1 += s_re * row_re[1] - s_im * row_im[1];
      ai1 += s_re * row_im[1] + s_im * row_re[1];
      ar2 += s_re * row_re[2] - s_im * row_im[2];
      ai2 += s_re * row_im[2] + s_im * row_re[2];
      ar3 += s_re * row_re[3] - s_im * row_im[3];
      ai3 += s_re * row_im[3] + s_im * row_re[3];
    }
    acc_re[c0] = ar0;
    acc_re[c0 + 1] = ar1;
    acc_re[c0 + 2] = ar2;
    acc_re[c0 + 3] = ar3;
    acc_im[c0] = ai0;
    acc_im[c0 + 1] = ai1;
    acc_im[c0 + 2] = ai2;
    acc_im[c0 + 3] = ai3;
  }
  for (; c0 < nc; ++c0) {
    float ar = 0.0f, ai = 0.0f;
    for (std::size_t k = 0; k < n; ++k) {
      const Cf s = seg[k];  // ASan checks a whole load, not .real()
      const float s_re = s.real();
      const float s_im = s.imag();
      const float br = b_re[k * nc + c0];
      const float bi = b_im[k * nc + c0];
      ar += s_re * br - s_im * bi;
      ai += s_re * bi + s_im * br;
    }
    acc_re[c0] = ar;
    acc_im[c0] = ai;
  }
}

CmacBank::Best CmacBank::best_match(std::span<const Cf> seg) const {
  std::array<float, kMaxCandidates> re_buf, im_buf;
  const std::span<float> out_re(re_buf.data(), n_candidates_);
  const std::span<float> out_im(im_buf.data(), n_candidates_);
  correlate(seg, out_re, out_im);
  Best best;
  double best_mag = -1.0;
  for (std::size_t c = 0; c < n_candidates_; ++c) {
    const Cf corr(out_re[c], out_im[c]);
    // std::abs(Cf) is a float; the oracles widen it to double before
    // comparing — replicate exactly so near-ties order identically.
    const double mag = std::abs(corr);
    if (mag > best_mag) {
      best_mag = mag;
      best.index = c;
      best.corr = corr;
    }
  }
  return best;
}

}  // namespace ms::kernels
