#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/lanes.h"

namespace ms {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The three pieces of the Marsaglia polar method, written once for
// normal() and normals().

/// One coordinate of a candidate: uniform(-1.0, 1.0) of the raw draw r.
double polar_coord(std::uint64_t r) {
  return -1.0 + 2.0 * (static_cast<double>(r >> 11) * 0x1.0p-53);
}

/// A candidate is rejected when s = u² + v² lies on or outside the unit
/// circle, or at the origin.  `|`, not `||`: GCC then keeps normals()'s
/// candidate loop free of a branch that mispredicts one time in five.
bool polar_reject(double s) { return (s >= 1.0) | (s == 0.0); }

/// The scale m = sqrt(−2·ln s / s) of a kept candidate; T is double or
/// a lane vector.
template <typename T>
T polar_scale(T s, T log_s) {
  using lanes::sqrt;
  using std::sqrt;
  return sqrt(-2.0 * log_s / s);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  MS_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = polar_coord((*this)());
    v = polar_coord((*this)());
    s = u * u + v * v;
  } while (polar_reject(s));
  const double m = polar_scale(s, std::log(s));
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
}

void Rng::normals(std::span<double> out) {
  std::size_t i = 0;
  if (has_spare_ && !out.empty()) {
    out[i++] = spare_;
    has_spare_ = false;
  }
  // Kept candidates per block; even, so the scale pass fills whole lanes.
  constexpr std::size_t kPairs = 64;
  double us[kPairs], vs[kPairs], ss[kPairs], ls[kPairs], ms[kPairs];
  std::uint64_t st[4] = {s_[0], s_[1], s_[2], s_[3]};
  while (i < out.size()) {
    // Each kept candidate gives two values; an odd remainder leaves the
    // second as the spare.
    const std::size_t want = std::min(kPairs, (out.size() - i + 1) / 2);
    // Draw exactly the candidates normal() would, in its order.  Every
    // candidate is written to slot `kept`, which only a kept one
    // advances, so the loop has no data-dependent branch.
    std::size_t kept = 0;
    while (kept < want) {
      const double u = polar_coord(next(st));
      const double v = polar_coord(next(st));
      const double s = u * u + v * v;
      us[kept] = u;
      vs[kept] = v;
      ss[kept] = s;
      kept += !polar_reject(s);
    }
    for (std::size_t k = 0; k < want; ++k) ls[k] = std::log(ss[k]);
    if (want % 2) {  // pad the last lane: scale of s = 1, ln s = 0
      ss[want] = 1.0;
      ls[want] = 0.0;
    }
    for (std::size_t k = 0; k < want; k += 2) {
      const lanes::D2 m =
          polar_scale(lanes::D2{ss[k], ss[k + 1]}, lanes::D2{ls[k], ls[k + 1]});
      ms[k] = m[0];
      ms[k + 1] = m[1];
    }
    for (std::size_t k = 0; k < want; ++k) {
      out[i++] = us[k] * ms[k];
      if (i < out.size()) {
        out[i++] = vs[k] * ms[k];
      } else {
        spare_ = vs[k] * ms[k];
        has_spare_ = true;
      }
    }
  }
  std::copy(st, st + 4, s_);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Bits Rng::bits(std::size_t n) {
  Bits out(n);
  for (auto& b : out) b = static_cast<uint8_t>((*this)() & 1u);
  return out;
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>((*this)() & 0xffu);
  return out;
}

Rng Rng::fork(std::uint64_t point, std::uint64_t trial) const {
  // Hash (seed, point, trial) through three chained splitmix64 rounds.
  // Each round absorbs one input into the accumulator, so distinct grid
  // cells land on distinct 64-bit child seeds (up to a ~2^-64 birthday
  // chance, see tests/property/rng_property_test.cpp).  The odd
  // constants domain-separate the point and trial counters from each
  // other and from the plain Rng(seed) construction.
  std::uint64_t x = seed_;
  std::uint64_t h = splitmix64(x);
  x ^= point ^ 0xa0761d6478bd642full;
  h ^= splitmix64(x);
  x ^= trial ^ 0xe7037ed1a0b428dbull;
  h ^= splitmix64(x);
  return Rng(h);
}

}  // namespace ms
