#include "core/ident/templates.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/ops.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/zigbee/zigbee.h"

namespace ms {

double native_sample_rate(Protocol p) {
  switch (p) {
    case Protocol::WifiB:
      return 22e6;  // 11 Mcps × 2
    case Protocol::WifiN:
      return 20e6;
    case Protocol::Ble:
      return 8e6;  // 1 Msym/s × 8
    case Protocol::Zigbee:
      return 8e6;  // 2 Mcps × 4
  }
  MS_CHECK_MSG(false, "unknown protocol");
}

namespace {

Iq clip_duration(Iq w, double sample_rate, double duration_s) {
  const std::size_t n =
      static_cast<std::size_t>(duration_s * sample_rate);
  if (w.size() > n) w.resize(n);
  return w;
}

}  // namespace

Iq clean_preamble(Protocol p, bool extended) {
  const double rate = native_sample_rate(p);
  const double window_s = extended ? 40e-6 : 8e-6;
  switch (p) {
    case Protocol::WifiB: {
      const WifiBPhy phy;
      return clip_duration(phy.preamble_waveform(), rate, window_s);
    }
    case Protocol::WifiN: {
      const WifiNPhy phy;
      // Deterministic region: L-STF through the second HT-LTF (40 µs).
      return clip_duration(phy.preamble_waveform(), rate, window_s);
    }
    case Protocol::Ble: {
      const BlePhy phy;
      // Extended window covers preamble + constant advertising access
      // address (40 bits = 40 µs at 1 Mbps).
      Iq w = extended ? phy.preamble_waveform()
                      : phy.modulate_bits(
                            bytes_to_bits_lsb(std::array<uint8_t, 1>{0xaa}));
      return clip_duration(std::move(w), rate, window_s);
    }
    case Protocol::Zigbee: {
      const ZigbeePhy phy;
      return clip_duration(phy.preamble_waveform(), rate, window_s);
    }
  }
  MS_CHECK_MSG(false, "unknown protocol");
}

std::vector<int8_t> one_bit_window(std::span<const float> trace,
                                   std::size_t offset, std::size_t lp,
                                   std::size_t lt) {
  MS_CHECK(offset + lp + lt <= trace.size());
  const double thr = one_bit_threshold(trace, offset, lp, lt);
  std::vector<int8_t> out(lt);
  for (std::size_t i = 0; i < lt; ++i)
    out[i] = trace[offset + lp + i] >= thr ? 1 : -1;
  return out;
}

double one_bit_threshold(std::span<const float> trace, std::size_t offset,
                         std::size_t lp, std::size_t lt) {
  MS_CHECK(offset + lp + lt <= trace.size());
  double thr = 0.0;
  if (lp > 0) {
    for (std::size_t i = 0; i < lp; ++i) thr += trace[offset + i];
    thr /= static_cast<double>(lp);
  } else {
    for (std::size_t i = 0; i < lt; ++i) thr += trace[offset + i];
    thr /= static_cast<double>(lt);
  }
  return thr;
}

OneBitPeak packed_one_bit_peak(std::span<const float> trace, std::size_t lo,
                               std::size_t hi, std::size_t lp,
                               const bitpack::PackedVec& tmpl) {
  OneBitPeak best;
  const std::size_t lt = tmpl.bits;
  if (lt == 0) return best;
  // One scratch buffer reused across offsets (the reference path pays a
  // heap allocation per alignment here — that, plus the byte-per-position
  // correlation, is what the packed kernel removes).  The scan compares
  // raw integer dots and divides once at the end: score = dot / L_t with
  // L_t > 0 is monotone in dot, and starting from dot = −L_t reproduces
  // the reference's strict `score > −1.0` update rule exactly (an
  // all-disagree alignment never displaces the initial offset 0).
  std::vector<std::uint64_t> window(bitpack::words_for(lt));
  long best_dot = -static_cast<long>(lt);
  for (std::size_t off = lo; off <= hi && off + lp + lt <= trace.size();
       ++off) {
    const double thr = one_bit_threshold(trace, off, lp, lt);
    bitpack::pack_threshold(trace.subspan(off + lp, lt), thr, window);
    const long dot = bitpack::packed_dot(window, tmpl.words, lt);
    if (dot > best_dot) {
      best_dot = dot;
      best.offset = off;
    }
  }
  if (best_dot > -static_cast<long>(lt))
    best.score = static_cast<double>(best_dot) / static_cast<double>(lt);
  return best;
}

std::array<OneBitPeak, 4> packed_one_bit_peaks(
    std::span<const float> trace, std::size_t lo, std::size_t hi,
    std::size_t lp, const std::array<bitpack::PackedVec, 4>& tmpls) {
  std::array<OneBitPeak, 4> best;
  const std::size_t lt = tmpls[0].bits;
  for (const auto& t : tmpls) MS_CHECK(t.bits == lt);
  if (lt == 0) return best;
  std::vector<std::uint64_t> window(bitpack::words_for(lt));
  std::array<long, 4> best_dot;
  best_dot.fill(-static_cast<long>(lt));
  for (std::size_t off = lo; off <= hi && off + lp + lt <= trace.size();
       ++off) {
    const double thr = one_bit_threshold(trace, off, lp, lt);
    bitpack::pack_threshold(trace.subspan(off + lp, lt), thr, window);
    for (std::size_t t = 0; t < 4; ++t) {
      const long dot = bitpack::packed_dot(window, tmpls[t].words, lt);
      if (dot > best_dot[t]) {
        best_dot[t] = dot;
        best[t].offset = off;
      }
    }
  }
  for (std::size_t t = 0; t < 4; ++t)
    if (best_dot[t] > -static_cast<long>(lt))
      best[t].score =
          static_cast<double>(best_dot[t]) / static_cast<double>(lt);
  return best;
}

TemplateSet build_templates(const TemplateParams& params) {
  TemplateSet set;
  set.params = params;
  for (Protocol p : kAllProtocols) {
    const std::size_t idx = protocol_index(p);
    // Always synthesize from the long (extended) waveform so the template
    // window is cropped from a region where the signal continues — a
    // truncated waveform would bake FIR/rectifier edge artifacts into the
    // template tail that never appear in live traces.  The window length
    // (L_p + L_t) is what limits a "short window" configuration to the
    // first 8 µs, not the synthesis length.
    const Iq preamble = clean_preamble(p, /*extended=*/true);
    const Samples trace = acquire_trace(preamble, native_sample_rate(p),
                                        params.adc_rate_hz, params.front_end);
    std::size_t lt = params.match_len;
    std::size_t lp = params.preprocess_len;
    // Clip the window to what the trace actually provides (short
    // preambles at low ADC rates).
    if (lp + lt > trace.size()) {
      MS_CHECK_MSG(trace.size() > 8, "trace too short for any template");
      lp = std::min(lp, trace.size() / 4);
      lt = trace.size() - lp;
    }
    const std::span<const float> window(trace.data() + lp, lt);
    set.matched[idx] = normalize(window);
    set.one_bit[idx] = one_bit_window(trace, 0, lp, lt);
    set.one_bit_packed[idx] = bitpack::pack_signs(set.one_bit[idx]);
  }
  return set;
}

}  // namespace ms
