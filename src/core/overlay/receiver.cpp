#include "core/overlay/receiver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "core/ident/templates.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ms {

namespace {

// Telemetry ids (docs/OBSERVABILITY.md).  The sync metric is a
// normalized correlation in [0, 1].
constexpr std::array<double, 9> kMetricBounds = {0.1, 0.2, 0.3, 0.4, 0.5,
                                                 0.6, 0.7, 0.8, 0.9};

struct RxMetrics {
  obs::MetricId rx = obs::counter("overlay.rx");
  obs::MetricId sync_fail = obs::counter("overlay.sync_fail");
  obs::MetricId decode_fail = obs::counter("overlay.decode_fail");
  obs::MetricId decode_ok = obs::counter("overlay.decode_ok");
  obs::MetricId sync_metric = obs::histogram("overlay.sync_metric",
                                             kMetricBounds);
};

const RxMetrics& rx_metrics() {
  static const RxMetrics m;
  return m;
}

using F4 = float __attribute__((vector_size(16)));
constexpr std::size_t kBlock = 16;     // offsets per block: 4 F4 each for re, im
constexpr std::size_t kTapChunk = 64;  // taps per re/im stack copy

/// Correlations of the kBlock offsets starting at `x` with the preamble:
///   corr[j] = Σ_i x[j + i] · conj(p[i]),   i = 0 … L−1.
/// Each starts at +0.0f and adds its products in i order, and each
/// product is the four-multiply form GCC inlines for std::complex<float>
/// (re = a·c − b·d, im = a·d + b·c with (c, d) = conj(p[i])), so every
/// sum is the reference's bit for bit whenever no product is NaN.  The
/// vectors run across offsets, never inside a sum.  The samples a chunk
/// of taps reads are split into re and im on the stack first.  Only
/// x[0 … avail) is read: in a capture's last block, lanes whose window
/// runs past `avail` get zeros for the missing samples, and the caller
/// drops them.
void correlate_block(const Cf* x, std::size_t avail, std::span<const Cf> p,
                     Cf* corr) {
  F4 r0 = {}, r1 = {}, r2 = {}, r3 = {}, m0 = {}, m1 = {}, m2 = {}, m3 = {};
  float re[kTapChunk + kBlock - 1];
  float im[kTapChunk + kBlock - 1];
  for (std::size_t i0 = 0; i0 < p.size(); i0 += kTapChunk) {
    const std::size_t taps = std::min(kTapChunk, p.size() - i0);
    const std::size_t reads = taps + kBlock - 1;
    const std::size_t copied = std::min(reads, avail - i0);
    for (std::size_t k = 0; k < copied; ++k) {
      const Cf v = x[i0 + k];  // ASan checks a whole load, not .real()
      re[k] = v.real();
      im[k] = v.imag();
    }
    for (std::size_t k = copied; k < reads; ++k) re[k] = im[k] = 0.0f;
    for (std::size_t i = 0; i < taps; ++i) {
      const float c = p[i0 + i].real();
      const float d = -p[i0 + i].imag();
      const F4 cc = {c, c, c, c};
      const F4 dd = {d, d, d, d};
      F4 a0, a1, a2, a3, b0, b1, b2, b3;
      std::memcpy(&a0, re + i, sizeof(F4));
      std::memcpy(&a1, re + i + 4, sizeof(F4));
      std::memcpy(&a2, re + i + 8, sizeof(F4));
      std::memcpy(&a3, re + i + 12, sizeof(F4));
      std::memcpy(&b0, im + i, sizeof(F4));
      std::memcpy(&b1, im + i + 4, sizeof(F4));
      std::memcpy(&b2, im + i + 8, sizeof(F4));
      std::memcpy(&b3, im + i + 12, sizeof(F4));
      r0 += a0 * cc - b0 * dd;
      m0 += a0 * dd + b0 * cc;
      r1 += a1 * cc - b1 * dd;
      m1 += a1 * dd + b1 * cc;
      r2 += a2 * cc - b2 * dd;
      m2 += a2 * dd + b2 * cc;
      r3 += a3 * cc - b3 * dd;
      m3 += a3 * dd + b3 * cc;
    }
  }
  const F4 rs[] = {r0, r1, r2, r3};
  const F4 ms[] = {m0, m1, m2, m3};
  for (std::size_t j = 0; j < kBlock; ++j)
    corr[j] = Cf(rs[j / 4][j % 4], ms[j / 4][j % 4]);
}

/// Thrown when a window's energy is not finite: names the first sample
/// of `rx` with a NaN or infinite part, or whose float |x|² overflows.
[[noreturn]] void throw_non_finite(std::span<const Cf> rx) {
  for (std::size_t k = 0; k < rx.size(); ++k) {
    const Cf v = rx[k];
    if (std::isfinite(std::norm(v))) continue;
    const bool finite = std::isfinite(v.real()) && std::isfinite(v.imag());
    char what[160];
    std::snprintf(what, sizeof what,
                  "overlay sync: capture sample %zu of %zu, (%g, %g), %s", k,
                  rx.size(), static_cast<double>(v.real()),
                  static_cast<double>(v.imag()),
                  finite ? "overflows float in |x|^2" : "is not finite");
    throw Error(what);
  }
  throw Error("overlay sync: window energy is not finite");
}

}  // namespace

OverlayReceiver::OverlayReceiver(Protocol protocol, OverlayParams params)
    : protocol_(protocol),
      codec_(make_overlay_codec(protocol, params)),
      preamble_(clean_preamble(protocol, /*extended=*/false)) {
  for (const Cf& v : preamble_) preamble_energy_ += std::norm(v);
  MS_CHECK(preamble_energy_ > 0.0);
}

Iq OverlayReceiver::assemble_packet(std::span<const Cf> overlay_payload) const {
  Iq out = preamble_;
  out.insert(out.end(), overlay_payload.begin(), overlay_payload.end());
  return out;
}

std::optional<SyncResult> OverlayReceiver::synchronize(
    std::span<const Cf> rx, double min_metric) const {
  const std::size_t len = preamble_.size();
  if (rx.size() < len) return std::nullopt;
  const std::size_t offsets = rx.size() - len + 1;
  SyncResult best;
  bool found = false;
  // Sliding normalized cross-correlation.  Running window energy keeps
  // this O(N·L) multiplies but O(N) energy updates.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < len; ++i) win_energy += std::norm(rx[i]);
  // A non-finite sample, or one whose float std::norm overflows, makes
  // win_energy non-finite from the offset whose window first holds it,
  // and that capture is an error naming the sample (docs/PERF.md §6).
  // The test runs once per offset on the running energy, so finite
  // captures take the same arithmetic as without it.  Every offset
  // that is scored then has only finite samples, so no product in
  // correlate_block is NaN and it needs no __mulsc3 NaN recovery.
  for (std::size_t block = 0; block < offsets; block += kBlock) {
    Cf corr[kBlock];
    correlate_block(rx.data() + block, rx.size() - block, preamble_, corr);
    const std::size_t end = std::min(block + kBlock, offsets);
    for (std::size_t off = block; off < end; ++off) {
      if (off > 0) {
        win_energy += std::norm(rx[off + len - 1]);
        win_energy -= std::norm(rx[off - 1]);
      }
      if (!std::isfinite(win_energy)) throw_non_finite(rx);
      if (win_energy > 1e-12) {
        const double metric = std::abs(corr[off - block]) /
                              std::sqrt(win_energy * preamble_energy_);
        if (metric > best.metric) {
          best.metric = metric;
          best.preamble_start = off;
          best.payload_start = off + len;
          found = true;
        }
      }
    }
  }
  if (!found || best.metric < min_metric) return std::nullopt;
  return best;
}

std::optional<OverlayDecoded> OverlayReceiver::receive(
    std::span<const Cf> rx, std::size_t n_sequences, double min_metric) const {
  OBS_SCOPE("overlay.receive");
  const RxMetrics& rm = rx_metrics();
  obs::add(rm.rx);
  const auto sync = synchronize(rx, min_metric);
  if (!sync || sync->payload_start >= rx.size()) {
    obs::add(rm.sync_fail);
    obs::Event(obs::Subsystem::Overlay, obs::Severity::Info,
               "overlay.sync_fail")
        .f("metric", sync ? sync->metric : 0.0)
        .f("min_metric", min_metric)
        .emit();
    return std::nullopt;
  }
  obs::observe(rm.sync_metric, sync->metric);
  const auto payload = rx.subspan(sync->payload_start);
  // The codec checks it has enough samples; a truncated capture throws,
  // which we surface as "no packet".
  try {
    OverlayDecoded out = codec_->decode(payload, n_sequences);
    obs::add(rm.decode_ok);
    return out;
  } catch (const Error&) {
    obs::add(rm.decode_fail);
    obs::Event(obs::Subsystem::Overlay, obs::Severity::Warn,
               "overlay.decode_fail")
        .f("metric", sync->metric)
        .f("payload_len", payload.size())
        .f("n_sequences", n_sequences)
        .emit();
    return std::nullopt;
  }
}

}  // namespace ms
