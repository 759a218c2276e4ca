#include "core/ident/identifier.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/correlate.h"
#include "dsp/ops.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ms {

namespace {

// Telemetry ids (registered once; see docs/OBSERVABILITY.md for the
// naming scheme).  Histogram buckets cover the correlation-score range.
constexpr std::array<double, 9> kScoreBounds = {0.1, 0.2, 0.3, 0.4, 0.5,
                                                0.6, 0.7, 0.8, 0.9};

struct IdentMetrics {
  obs::MetricId classify = obs::counter("ident.classify");
  obs::MetricId match = obs::counter("ident.match");
  obs::MetricId no_match = obs::counter("ident.no_match");
  obs::MetricId no_trigger = obs::counter("ident.no_trigger");
  obs::MetricId abstain = obs::counter("ident.abstain");
  obs::MetricId ordered_tests = obs::counter("ident.ordered_tests");
  obs::MetricId best_score = obs::histogram("ident.best_score", kScoreBounds);
  obs::MetricId margin = obs::histogram("ident.margin", kScoreBounds);
};

const IdentMetrics& ident_metrics() {
  static const IdentMetrics m;
  return m;
}

void trace_decision(const IdentDecision& d, const char* mode,
                    std::size_t ordered_depth) {
  if (!obs::tracing()) return;
  obs::Event ev(obs::Subsystem::Ident,
                d.abstained ? obs::Severity::Warn : obs::Severity::Debug,
                d.abstained ? "ident.abstain" : "ident.decision");
  ev.fs("mode", mode);
  if (d.protocol)
    ev.fs("protocol", protocol_name(*d.protocol).data());
  else
    ev.fs("protocol", "none");
  ev.f("margin", d.confidence);
  const double best = *std::max_element(d.scores.begin(), d.scores.end());
  ev.f("best_score", best);
  if (ordered_depth > 0) ev.f("ordered_depth", ordered_depth);
  ev.emit();
}

}  // namespace

ProtocolIdentifier::ProtocolIdentifier(IdentifierConfig cfg)
    : cfg_(std::move(cfg)), templates_(build_templates(cfg_.templates)) {}

std::size_t ProtocolIdentifier::detect_onset(
    std::span<const float> adc_trace) const {
  const float peak = peak_abs(adc_trace);
  const float thr = 0.4f * peak;
  for (std::size_t i = 0; i < adc_trace.size(); ++i)
    if (adc_trace[i] >= thr) return i;
  return 0;
}

double ProtocolIdentifier::score_one(std::span<const float> trace,
                                     std::size_t onset,
                                     std::size_t idx) const {
  const std::size_t lp = cfg_.templates.preprocess_len;
  const std::size_t margin = std::max<std::size_t>(
      2, static_cast<std::size_t>(cfg_.align_search_s *
                                  cfg_.templates.adc_rate_hz));
  const std::size_t lo = onset > margin ? onset - margin : 0;
  const std::size_t hi = onset + margin;

  if (cfg_.compute == ComputeMode::FullPrecision) {
    const Samples& tmpl = templates_.matched[idx];
    double best = -1.0;
    for (std::size_t off = lo;
         off <= hi && off + lp + tmpl.size() <= trace.size(); ++off)
      best = std::max(best, pearson(trace.subspan(off + lp, tmpl.size()), tmpl));
    return best;
  }
  return packed_one_bit_peak(trace, lo, hi, lp, templates_.one_bit_packed[idx])
      .score;
}

std::array<double, 4> ProtocolIdentifier::scores(
    std::span<const float> adc_trace) const {
  const std::size_t onset = detect_onset(adc_trace);
  std::array<double, 4> out{};
  // The packed OneBit kernel scores all four templates in one pass when
  // they share a bit length (the usual case — clipping in
  // build_templates can desynchronize them at extreme ADC rates): the
  // DC threshold and packed live window are computed once per alignment
  // instead of once per protocol.  Bit-identical to the per-protocol
  // loop below; only faster.
  if (cfg_.compute == ComputeMode::OneBit &&
      templates_.one_bit_packed[0].bits == templates_.one_bit_packed[1].bits &&
      templates_.one_bit_packed[0].bits == templates_.one_bit_packed[2].bits &&
      templates_.one_bit_packed[0].bits == templates_.one_bit_packed[3].bits) {
    const std::size_t lp = cfg_.templates.preprocess_len;
    const std::size_t margin = std::max<std::size_t>(
        2, static_cast<std::size_t>(cfg_.align_search_s *
                                    cfg_.templates.adc_rate_hz));
    const std::size_t lo = onset > margin ? onset - margin : 0;
    const auto peaks = packed_one_bit_peaks(adc_trace, lo, onset + margin, lp,
                                            templates_.one_bit_packed);
    for (std::size_t i = 0; i < 4; ++i) out[i] = peaks[i].score;
  } else {
    for (std::size_t i = 0; i < 4; ++i) out[i] = score_one(adc_trace, onset, i);
  }
  if (obs::tracing()) {
    obs::set_sim_time(static_cast<double>(onset) /
                      cfg_.templates.adc_rate_hz);
    obs::Event(obs::Subsystem::Ident, obs::Severity::Debug, "ident.scores")
        .f("wifi_b", out[0])
        .f("wifi_n", out[1])
        .f("ble", out[2])
        .f("zigbee", out[3])
        .f("onset", onset)
        .emit();
  }
  return out;
}

std::optional<Protocol> ProtocolIdentifier::identify(
    std::span<const float> adc_trace) const {
  return classify(adc_trace).protocol;
}

IdentDecision ProtocolIdentifier::classify(
    std::span<const float> adc_trace) const {
  OBS_SCOPE("ident.classify");
  const IdentMetrics& m = ident_metrics();
  obs::add(m.classify);
  IdentDecision d;
  if (peak_abs(adc_trace) < cfg_.min_trigger_v) {
    obs::add(m.no_trigger);
    obs::Event(obs::Subsystem::Ident, obs::Severity::Debug,
               "ident.no_trigger")
        .f("min_trigger_v", cfg_.min_trigger_v)
        .emit();
    return d;
  }
  d.scores = scores(adc_trace);
  obs::observe(m.best_score,
               *std::max_element(d.scores.begin(), d.scores.end()));

  if (cfg_.decision == DecisionMode::Ordered) {
    std::size_t depth = 0;  // templates tested before the verdict
    for (Protocol p : cfg_.order) {
      const std::size_t idx = protocol_index(p);
      ++depth;
      const double margin = d.scores[idx] - cfg_.thresholds[idx];
      if (margin <= 0.0) continue;
      // First protocol over its threshold wins — unless it clears the
      // bar by less than the abstain margin, in which case committing
      // is a coin flip the tag should not take.
      d.confidence = margin;
      obs::add(m.ordered_tests, depth);
      obs::observe(m.margin, margin);
      if (cfg_.abstain_margin > 0.0 && margin < cfg_.abstain_margin) {
        d.abstained = true;
        obs::add(m.abstain);
        trace_decision(d, "ordered", depth);
        return d;
      }
      d.protocol = p;
      obs::add(m.match);
      trace_decision(d, "ordered", depth);
      return d;
    }
    obs::add(m.ordered_tests, depth);
    obs::add(m.no_match);
    trace_decision(d, "ordered", depth);
    return d;
  }

  const std::size_t best = static_cast<std::size_t>(std::distance(
      d.scores.begin(), std::max_element(d.scores.begin(), d.scores.end())));
  double second = -1.0;
  for (std::size_t i = 0; i < d.scores.size(); ++i)
    if (i != best) second = std::max(second, d.scores[i]);
  d.confidence = d.scores[best] - second;
  obs::observe(m.margin, d.confidence);
  if (d.scores[best] < cfg_.blind_min_score) {
    obs::add(m.no_match);
    trace_decision(d, "blind", 0);
    return d;
  }
  if (cfg_.abstain_margin > 0.0 && d.confidence < cfg_.abstain_margin) {
    d.abstained = true;
    obs::add(m.abstain);
    trace_decision(d, "blind", 0);
    return d;
  }
  d.protocol = kAllProtocols[best];
  obs::add(m.match);
  trace_decision(d, "blind", 0);
  return d;
}

}  // namespace ms
