#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace ms {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
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
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
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

Rng Rng::fork() { return Rng((*this)()); }

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
