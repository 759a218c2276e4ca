#include "dsp/fft.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "common/error.h"

namespace ms {

namespace {

// Finite-value std::complex<float> multiply, open-coded: the same four
// multiplies and two add/subs (same order) the library performs, minus
// the __mulsc3 call and its NaN fixup.
inline Cf cmul(Cf a, Cf b) {
  return Cf(a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real());
}

std::vector<std::vector<Cf>> build_tables(std::size_t n, bool inverse) {
  std::vector<std::vector<Cf>> tables;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Cf wlen(static_cast<float>(std::cos(ang)),
                  static_cast<float>(std::sin(ang)));
    std::vector<Cf> stage(len / 2);
    // The identical recurrence the textbook transform runs per block —
    // NOT cos/sin per entry, which would round differently from
    // w *= wlen.
    Cf w(1.0f, 0.0f);
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w = cmul(w, wlen);
    }
    tables.push_back(std::move(stage));
  }
  return tables;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  MS_CHECK_MSG(is_pow2(n), "FFT length must be a power of two");
  // Bit-reversal permutation, recorded as its swap list.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j)
      swaps_.emplace_back(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j));
  }
  fwd_ = build_tables(n, /*inverse=*/false);
  inv_ = build_tables(n, /*inverse=*/true);
}

void FftPlan::run(std::span<Cf> x, bool inverse) const {
  MS_CHECK(x.size() == n_);
  for (const auto& [i, j] : swaps_) std::swap(x[i], x[j]);

  // Danielson–Lanczos butterflies.
  const auto& tables = inverse ? inv_ : fwd_;
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1, ++stage) {
    const Cf* tw = tables[stage].data();
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      Cf* a = x.data() + i;
      Cf* b = a + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Cf u = a[k];
        const Cf v = cmul(b[k], tw[k]);
        a[k] = u + v;
        b[k] = u - v;
      }
    }
  }

  if (inverse) {
    const float inv = 1.0f / static_cast<float>(n_);
    for (Cf& v : x) v *= inv;
  }
}

void FftPlan::forward(std::span<Cf> x) const { run(x, /*inverse=*/false); }
void FftPlan::inverse(std::span<Cf> x) const { run(x, /*inverse=*/true); }

const FftPlan& fft_plan(std::size_t n) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<FftPlan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, std::make_unique<FftPlan>(n)).first;
  return *it->second;
}

void fft_inplace(Iq& x) { fft_plan(x.size()).forward(x); }

Iq ifft(std::span<const Cf> x) {
  Iq out(x.begin(), x.end());
  fft_plan(out.size()).inverse(out);
  return out;
}

}  // namespace ms
