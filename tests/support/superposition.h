// Multi-tag waveform superposition (test-only: linked through
// ms_test_support, never by src/).  The fleet_superposed_{2,3}tag.txt
// golden fixtures pin its arithmetic.
//
// When N tags backscatter one excitation, the receiver's ADC sees the
// complex sum of N per-tag waveforms, each scaled and rotated by its own
// link budget and arriving at its own sample offset.  This module owns
// that composition: a per-tag channel (gain/phase/delay), the
// single-tag reference path (one waveform through one channel into a
// zero-padded buffer), and the N-way superposition.
//
// Determinism contract: superpose_tags accumulates per sample in
// ascending source order with plain complex<float> arithmetic, so the
// composite is bit-identical to summing the N single-tag reference
// buffers element-wise in the same order — at any thread count, chunk
// size, and whether the per-tag waveforms came fresh from the PHY or
// from the waveform cache.  The property suite
// (tests/property/superposition_property_test.cpp) pins this equivalence.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/iq.h"

namespace ms {

/// Static per-tag channel between one tag and the shared receiver.
/// Gains are relative to an arbitrary reference (the golden fixtures put
/// the strongest tag at 0 dB), the phase models the round-trip path, and
/// the delay is the integer-sample arrival offset within the slot.
struct TagChannel {
  double gain_db = 0.0;
  double phase_rad = 0.0;
  std::size_t delay_samples = 0;
};

/// Complex channel coefficient: 10^(gain/20) · e^{jφ}, rounded to the
/// float precision every superposition sample is accumulated in.
Cf tag_channel_coefficient(const TagChannel& ch);

/// One tag's contribution to a composite slot.
struct SuperposedSource {
  std::span<const Cf> wave;  ///< the tag's backscattered waveform
  TagChannel channel;
};

/// Samples needed to hold every source at its delay.
std::size_t superposed_length(std::span<const SuperposedSource> sources);

/// Single-tag reference path: `wave` through `ch` into a zeroed buffer
/// of `len` samples (len >= ch.delay_samples + wave.size()).  This is
/// the oracle the superposition property tests sum by hand.
Iq apply_tag_channel(std::span<const Cf> wave, const TagChannel& ch,
                     std::size_t len);

/// Accumulate every source into `out` (must be superposed_length() long
/// and zero-initialized by the caller).  Walks the buffer in fixed-size
/// chunks so long composites stream through the cache, but the
/// per-sample accumulation order is always ascending source index —
/// the chunk size cannot change a single output bit.
void superpose_tags_into(std::span<const SuperposedSource> sources,
                         std::span<Cf> out, std::size_t chunk_samples = 4096);

/// Convenience allocation + superpose_tags_into.
Iq superpose_tags(std::span<const SuperposedSource> sources);

}  // namespace ms
