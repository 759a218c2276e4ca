// Streaming identifier: the FPGA-shaped version of protocol
// identification.  ADC samples arrive one at a time; the detector keeps
// a ring buffer, watches for an energy rising edge, and once enough
// post-trigger samples have accumulated, runs ordered (or blind)
// matching on the captured window and emits an identification event.
// Between packets the ADC EN line is modeled as duty-cycled off.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "core/ident/identifier.h"

namespace ms {

struct IdentEvent {
  std::size_t trigger_sample = 0;  ///< sample index of the energy edge
  std::optional<Protocol> protocol;
  std::array<double, 4> scores{};
  double confidence = 0.0;  ///< decision margin (see IdentDecision)
  /// The window triggered but the verdict was withheld (low margin);
  /// the detector re-arms after cfg.abstain_rearm_s instead of the full
  /// post-classification holdoff, so the tag senses again quickly.
  bool abstained = false;
};

class StreamingIdentifier {
 public:
  explicit StreamingIdentifier(IdentifierConfig cfg);

  /// Push one ADC sample; returns an event when a packet window has just
  /// been classified.  This is the reference path — the block overload
  /// below must match it event-for-event (the differential suite
  /// compares the two directly).
  std::optional<IdentEvent> push(float sample);

  /// Push a block of samples, collecting all events.  Walks the block
  /// as a kernels::ChunkedSpan and advances in bulk where the state
  /// machine permits: Capturing windows fill by memcpy-sized runs and
  /// min-holdoff intervals skip whole subspans, while the Idle
  /// noise-floor EMA and the holdoff quiet-run stay per-sample (their
  /// state depends on every sample).  Identical events/positions to
  /// feeding push(float) sample-by-sample.
  std::vector<IdentEvent> push(std::span<const float> samples);

  /// Chunk size for the block path (default 4096 samples).  Exposed so
  /// the differential tests can force ragged chunk boundaries.
  void set_stream_chunk(std::size_t samples);
  std::size_t stream_chunk() const { return stream_chunk_; }

  /// Samples consumed so far.
  std::size_t position() const { return position_; }

  /// Fraction of time the correlator was active (≈ ADC duty factor the
  /// EN line achieves between packets).
  double active_fraction() const;

 private:
  enum class State { Idle, Capturing, Holdoff };

  std::size_t window_len() const;
  /// Classify the (full) capture window and transition to Holdoff.
  IdentEvent classify_window();

  ProtocolIdentifier identifier_;
  IdentifierConfig cfg_;
  State state_ = State::Idle;
  std::deque<float> window_;
  std::size_t position_ = 0;
  std::size_t trigger_pos_ = 0;
  std::size_t holdoff_remaining_ = 0;
  std::size_t min_holdoff_remaining_ = 0;
  std::size_t active_samples_ = 0;
  std::size_t stream_chunk_ = 4096;
  // Noise-floor tracker for the trigger threshold.
  double noise_floor_ = 0.0;
};

}  // namespace ms
