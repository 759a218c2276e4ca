#include "core/ident/streaming.h"

#include <algorithm>

namespace ms {

namespace {
/// Consecutive sub-threshold samples required to declare the channel
/// idle again after a packet.
constexpr std::size_t kQuietRunSamples = 24;
}  // namespace

StreamingIdentifier::StreamingIdentifier(IdentifierConfig cfg)
    : identifier_(cfg), cfg_(std::move(cfg)) {}

std::size_t StreamingIdentifier::window_len() const {
  // Capture: pre-trigger margin + L_p + L_t + alignment slack.
  const std::size_t margin = std::max<std::size_t>(
      2, static_cast<std::size_t>(cfg_.align_search_s *
                                  cfg_.templates.adc_rate_hz));
  std::size_t lt = 0;
  for (const auto& t : identifier_.templates().one_bit)
    lt = std::max(lt, t.size());
  return 2 * margin + cfg_.templates.preprocess_len + lt;
}

std::optional<IdentEvent> StreamingIdentifier::push(float sample) {
  ++position_;
  switch (state_) {
    case State::Idle: {
      // Slow noise-floor tracking while idle (the FPGA's threshold DAC).
      noise_floor_ = 0.995 * noise_floor_ + 0.005 * std::abs(sample);
      const double trigger =
          std::max(cfg_.min_trigger_v, 4.0 * noise_floor_);
      if (std::abs(sample) >= trigger) {
        state_ = State::Capturing;
        trigger_pos_ = position_ - 1;
        window_.clear();
        window_.push_back(sample);
        ++active_samples_;
      }
      return std::nullopt;
    }
    case State::Capturing: {
      ++active_samples_;
      window_.push_back(sample);
      if (window_.size() < window_len()) return std::nullopt;
      return classify_window();
    }
    case State::Holdoff: {
      if (min_holdoff_remaining_ > 0) {
        --min_holdoff_remaining_;
        return std::nullopt;
      }
      const double release =
          std::max(cfg_.min_trigger_v, 4.0 * noise_floor_) * 0.5;
      if (std::abs(sample) >= release) {
        holdoff_remaining_ = kQuietRunSamples;  // still busy, restart run
      } else if (holdoff_remaining_ > 0) {
        --holdoff_remaining_;
        if (holdoff_remaining_ == 0) state_ = State::Idle;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

IdentEvent StreamingIdentifier::classify_window() {
  const Samples trace(window_.begin(), window_.end());
  const IdentDecision d = identifier_.classify(trace);
  IdentEvent ev;
  ev.trigger_sample = trigger_pos_;
  ev.scores = d.scores;
  ev.protocol = d.protocol;
  ev.confidence = d.confidence;
  ev.abstained = d.abstained;
  // Hold off: first a minimum of one packet-detection window (the
  // rest of the same preamble must not re-trigger), then wait for a
  // run of quiet samples (carrier release).  An abstained window
  // re-arms much sooner — the whole point of withholding the verdict
  // is to sense again instead of sleeping through the next chance.
  const double holdoff_s = d.abstained ? cfg_.abstain_rearm_s : 40e-6;
  min_holdoff_remaining_ =
      static_cast<std::size_t>(holdoff_s * cfg_.templates.adc_rate_hz);
  holdoff_remaining_ = kQuietRunSamples;
  state_ = State::Holdoff;
  window_.clear();
  return ev;
}

std::vector<IdentEvent> StreamingIdentifier::push(
    std::span<const float> samples) {
  std::vector<IdentEvent> events;
  for (float s : samples)
    if (auto ev = push(s)) events.push_back(*ev);
  return events;
}

double StreamingIdentifier::active_fraction() const {
  return position_ == 0 ? 0.0
                        : static_cast<double>(active_samples_) /
                              static_cast<double>(position_);
}

}  // namespace ms
