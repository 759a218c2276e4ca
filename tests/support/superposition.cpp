#include "superposition.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ms {

Cf tag_channel_coefficient(const TagChannel& ch) {
  const double amp = std::pow(10.0, ch.gain_db / 20.0);
  return Cf(static_cast<float>(amp * std::cos(ch.phase_rad)),
            static_cast<float>(amp * std::sin(ch.phase_rad)));
}

std::size_t superposed_length(std::span<const SuperposedSource> sources) {
  std::size_t len = 0;
  for (const SuperposedSource& s : sources)
    len = std::max(len, s.channel.delay_samples + s.wave.size());
  return len;
}

Iq apply_tag_channel(std::span<const Cf> wave, const TagChannel& ch,
                     std::size_t len) {
  MS_CHECK(len >= ch.delay_samples + wave.size());
  Iq out(len, Cf(0.0f, 0.0f));
  const Cf c = tag_channel_coefficient(ch);
  // Accumulate (0.0f + x) rather than store x: the superposition engine
  // adds into a zeroed buffer, and a -0.0f product would otherwise make
  // the single-tag reference differ from the N=1 superposition by a
  // sign-of-zero bit (same guard the PR-6 kernels use).
  for (std::size_t n = 0; n < wave.size(); ++n)
    out[ch.delay_samples + n] += c * wave[n];
  return out;
}

void superpose_tags_into(std::span<const SuperposedSource> sources,
                         std::span<Cf> out, std::size_t chunk_samples) {
  MS_CHECK(out.size() >= superposed_length(sources));
  if (out.empty()) return;
  MS_CHECK(chunk_samples > 0);
  // Chunk-outer / source-inner: every output sample still accumulates
  // its contributions in ascending source order, so the result is
  // bit-identical to the naive whole-buffer loop for any chunk size.
  for (std::size_t begin = 0; begin < out.size(); begin += chunk_samples) {
    const std::size_t end = std::min(out.size(), begin + chunk_samples);
    for (const SuperposedSource& s : sources) {
      const std::size_t s_begin = s.channel.delay_samples;
      const std::size_t s_end = s_begin + s.wave.size();
      const std::size_t lo = std::max(begin, s_begin);
      const std::size_t hi = std::min(end, s_end);
      if (lo >= hi) continue;
      const Cf c = tag_channel_coefficient(s.channel);
      for (std::size_t i = lo; i < hi; ++i)
        out[i] += c * s.wave[i - s_begin];
    }
  }
}

Iq superpose_tags(std::span<const SuperposedSource> sources) {
  Iq out(superposed_length(sources), Cf(0.0f, 0.0f));
  superpose_tags_into(sources, out);
  return out;
}

}  // namespace ms
