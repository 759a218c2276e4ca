// Property sweeps for the multi-tag superposition (superposition.h in
// the test-support library): N-tag superposition is bit-identical to
// the element-wise sum of the N single-tag reference buffers, at any
// chunk size.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "superposition.h"

namespace ms {
namespace {

Iq random_wave(Rng& rng, std::size_t n) {
  Iq w(n);
  for (Cf& v : w)
    v = Cf(static_cast<float>(rng.uniform(-1.0, 1.0)),
           static_cast<float>(rng.uniform(-1.0, 1.0)));
  return w;
}

TEST(CaptureProperty, SuperpositionMatchesSummedReferencesBitwise) {
  Rng rng(4005);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(6);
    std::vector<Iq> waves(n);
    std::vector<SuperposedSource> sources(n);
    for (std::size_t s = 0; s < n; ++s) {
      waves[s] = random_wave(rng, 1 + rng.uniform_int(256));
      sources[s].wave = waves[s];
      sources[s].channel.gain_db = rng.uniform(-30.0, 6.0);
      sources[s].channel.phase_rad = rng.uniform(0.0, 6.283185307179586);
      sources[s].channel.delay_samples = rng.uniform_int(64);
    }
    const std::size_t len = superposed_length(sources);
    const Iq composite = superpose_tags(sources);
    ASSERT_EQ(composite.size(), len);

    // Oracle: each tag through its own channel into its own zeroed
    // buffer, then an element-wise sum in the same ascending order.
    Iq acc(len, Cf(0.0f, 0.0f));
    for (std::size_t s = 0; s < n; ++s) {
      const Iq ref = apply_tag_channel(sources[s].wave, sources[s].channel,
                                       len);
      for (std::size_t i = 0; i < len; ++i) acc[i] += ref[i];
    }
    ASSERT_EQ(std::memcmp(composite.data(), acc.data(),
                          len * sizeof(Cf)),
              0)
        << "trial " << trial;
  }
}

TEST(CaptureProperty, SuperpositionIsChunkSizeInvariant) {
  Rng rng(4006);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(5);
    std::vector<Iq> waves(n);
    std::vector<SuperposedSource> sources(n);
    for (std::size_t s = 0; s < n; ++s) {
      waves[s] = random_wave(rng, 1 + rng.uniform_int(300));
      sources[s].wave = waves[s];
      sources[s].channel.gain_db = rng.uniform(-20.0, 3.0);
      sources[s].channel.phase_rad = rng.uniform(0.0, 6.283185307179586);
      sources[s].channel.delay_samples = rng.uniform_int(40);
    }
    const std::size_t len = superposed_length(sources);
    Iq a(len, Cf(0.0f, 0.0f)), b(len, Cf(0.0f, 0.0f)),
        c(len, Cf(0.0f, 0.0f));
    superpose_tags_into(sources, a, 1);
    superpose_tags_into(sources, b, 7);
    superpose_tags_into(sources, c, 4096);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), len * sizeof(Cf)), 0)
        << "trial " << trial;
    ASSERT_EQ(std::memcmp(a.data(), c.data(), len * sizeof(Cf)), 0)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ms
