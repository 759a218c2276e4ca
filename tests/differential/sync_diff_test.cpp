// Differential gate for overlay packet sync.  OverlayReceiver::synchronize
// correlates 16 neighbouring offsets at a time in vector registers.  Its
// SyncResult must be exactly the scalar loop's, bit for bit, on every
// input: every block remainder, workload-shaped captures, silent
// stretches under the energy floor, near-tied peaks and every
// threshold; and both must reject a capture with a non-finite sample
// anywhere.  That scalar loop lives on here, verbatim plus the same
// finiteness test, as the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ident/templates.h"
#include "core/overlay/receiver.h"
#include "diff_harness.h"
#include "dsp/ops.h"

namespace ms {
namespace {

namespace oracle {

/// OverlayReceiver::synchronize before the blocked kernel, plus the
/// `found` guard (a capture where no offset wins finds no packet) and
/// the finiteness test on the running energy.
std::optional<SyncResult> synchronize(std::span<const Cf> preamble_,
                                      double preamble_energy_,
                                      std::span<const Cf> rx,
                                      double min_metric) {
  if (rx.size() < preamble_.size()) return std::nullopt;
  SyncResult best;
  bool found = false;
  // Sliding normalized cross-correlation.  Running window energy keeps
  // this O(N·L) multiplies but O(N) energy updates.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < preamble_.size(); ++i)
    win_energy += std::norm(rx[i]);
  for (std::size_t off = 0; off + preamble_.size() <= rx.size(); ++off) {
    if (off > 0) {
      win_energy += std::norm(rx[off + preamble_.size() - 1]);
      win_energy -= std::norm(rx[off - 1]);
    }
    if (!std::isfinite(win_energy))
      throw Error("oracle sync: window energy is not finite");
    if (win_energy > 1e-12) {
      Cf corr(0.0f, 0.0f);
      for (std::size_t i = 0; i < preamble_.size(); ++i)
        corr += rx[off + i] * std::conj(preamble_[i]);
      const double metric =
          std::abs(corr) / std::sqrt(win_energy * preamble_energy_);
      if (metric > best.metric) {
        best.metric = metric;
        best.preamble_start = off;
        best.payload_start = off + preamble_.size();
        found = true;
      }
    }
  }
  if (!found || best.metric < min_metric) return std::nullopt;
  return best;
}

}  // namespace oracle

constexpr std::size_t kBlock = 16;  // offsets per block in receiver.cpp
constexpr double kThresholds[] = {0.0, 0.5, 1.0, 1.5};

/// One protocol's receiver next to the oracle's view of its preamble.
struct Chain {
  explicit Chain(Protocol p)
      : protocol(p),
        rx(p, mode_params(p, OverlayMode::Mode1)),
        preamble(clean_preamble(p, /*extended=*/false)) {
    for (const Cf& v : preamble) energy += std::norm(v);
  }
  Protocol protocol;
  OverlayReceiver rx;
  Iq preamble;
  double energy = 0.0;
  std::size_t len() const { return preamble.size(); }
};

std::vector<Chain> all_chains() {
  std::vector<Chain> out;
  for (Protocol p : kAllProtocols) out.emplace_back(p);
  return out;
}

/// What one synchronize call gave: a result, or the ms::Error it threw.
struct Outcome {
  std::optional<SyncResult> sync;
  std::optional<std::string> error;
};

template <typename Sync>
Outcome outcome(Sync sync) {
  try {
    return {sync(), std::nullopt};
  } catch (const Error& e) {
    return {std::nullopt, e.what()};
  }
}

std::string describe(const Outcome& o) {
  if (o.error) return "threw '" + *o.error + "'";
  if (!o.sync) return "nullopt";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{%zu, %zu, %a}", o.sync->preamble_start,
                o.sync->payload_start, o.sync->metric);
  return buf;
}

/// Compares the production sync with the oracle at every threshold:
/// both throw, or both return the same result.  Returns false after the
/// first divergence, so a sweep stops there.
bool same_sync(const Chain& c, std::span<const Cf> rx, const std::string& ctx,
               std::span<const double> thresholds = kThresholds) {
  for (double min_metric : thresholds) {
    const Outcome fast_out =
        outcome([&] { return c.rx.synchronize(rx, min_metric); });
    const Outcome ref_out = outcome([&] {
      return oracle::synchronize(c.preamble, c.energy, rx, min_metric);
    });
    const std::string where = std::string(protocol_name(c.protocol)) +
                              ", n=" + std::to_string(rx.size()) +
                              ", min_metric=" + std::to_string(min_metric) +
                              ", " + ctx + ": fast " + describe(fast_out) +
                              " ref " + describe(ref_out);
    EXPECT_EQ(fast_out.error.has_value(), ref_out.error.has_value()) << where;
    if (fast_out.error.has_value() != ref_out.error.has_value()) return false;
    if (fast_out.error) continue;
    const auto& fast = fast_out.sync;
    const auto& ref = ref_out.sync;
    EXPECT_EQ(fast.has_value(), ref.has_value()) << where;
    if (fast.has_value() != ref.has_value()) return false;
    if (!fast) continue;
    EXPECT_EQ(fast->preamble_start, ref->preamble_start) << where;
    EXPECT_EQ(fast->payload_start, ref->payload_start) << where;
    EXPECT_EQ(fast->metric, ref->metric) << where;
    if (fast->preamble_start != ref->preamble_start ||
        fast->payload_start != ref->payload_start ||
        fast->metric != ref->metric)
      return false;
  }
  return true;
}

/// Adds `scale` × the preamble at sample `at`.
void add_preamble(Iq& x, const Chain& c, std::size_t at, float scale = 1.0f) {
  for (std::size_t i = 0; i < c.len() && at + i < x.size(); ++i)
    x[at + i] += scale * c.preamble[i];
}

TEST(SyncDiff, EveryBlockRemainder) {
  // Lengths L−1 and L … L+40 give 0 … 41 offsets: no offset, a lone
  // partial block, one and two full blocks, and every partial last block
  // after them.
  Rng rng(difftest::kSeed);
  for (const Chain& c : all_chains()) {
    for (std::size_t n = c.len() - 1; n <= c.len() + 40; ++n) {
      const std::size_t last = n >= c.len() ? n - c.len() : 0;
      for (std::size_t at : {std::size_t{0}, last / 2, last}) {
        Iq x = complex_noise(n, 0.05, rng);
        add_preamble(x, c, at);
        ASSERT_TRUE(same_sync(c, x, "preamble at " + std::to_string(at)));
      }
      const Iq noise = complex_noise(n, 1.0, rng);
      ASSERT_TRUE(same_sync(c, noise, "noise only"));
    }
  }
}

TEST(SyncDiff, WorkloadShapedCaptures) {
  // perfbench overlay_decode's capture: 40 sequences, 500 noise samples
  // before the packet and 300 after, AWGN over the whole capture.
  Rng rng(difftest::kSeed + 1);
  for (const Chain& c : all_chains()) {
    const OverlayCodec& codec = c.rx.codec();
    for (int snr_db = -2; snr_db <= 14; snr_db += 2) {
      const Bits productive =
          rng.bits(40 * codec.productive_bits_per_sequence());
      const Bits tag = rng.bits(codec.tag_capacity(40));
      const Iq packet = c.rx.assemble_packet(
          codec.tag_modulate(codec.make_carrier(productive), tag));
      Iq capture(500 + packet.size() + 300, Cf(0.0f, 0.0f));
      std::copy(packet.begin(), packet.end(), capture.begin() + 500);
      const double noise_power =
          mean_power(std::span<const Cf>(packet)) / db_to_linear(snr_db);
      const Iq noisy = add_noise_power(capture, noise_power, rng);
      ASSERT_TRUE(same_sync(c, noisy, "snr " + std::to_string(snr_db) + " dB"));
    }
  }
}

TEST(SyncDiff, SilentCapturesAndZeroRuns) {
  Rng rng(difftest::kSeed + 2);
  for (const Chain& c : all_chains()) {
    for (std::size_t n : {c.len(), c.len() + 17, std::size_t{4000}}) {
      ASSERT_TRUE(same_sync(c, Iq(n, Cf(0.0f, 0.0f)), "all zero"));
      ASSERT_TRUE(same_sync(c, Iq(n, Cf(-0.0f, -0.0f)), "all -0"));
    }
    // Zero runs of L and longer: the window energy falls under the 1e-12
    // floor at the first offset or inside a block, stays there across
    // block boundaries, then recovers.
    for (std::size_t run : {c.len(), c.len() + 5, 3 * c.len()}) {
      for (std::size_t at : {std::size_t{0}, std::size_t{kBlock - 3},
                             std::size_t{200}, std::size_t{1000}}) {
        Iq x = complex_noise(1200 + run, 0.3, rng);
        for (std::size_t i = at; i < at + run && i < x.size(); ++i)
          x[i] = Cf(0.0f, 0.0f);
        add_preamble(x, c, at + run);
        ASSERT_TRUE(same_sync(c, x, "zero run " + std::to_string(run) +
                                        " at " + std::to_string(at)));
      }
    }
    // Amplitudes that put the window energy right at the floor.
    for (float amp : {7e-8f, 1e-7f, 1.5e-7f}) {
      Iq x(600, Cf(amp, -amp));
      for (std::size_t i = 0; i < x.size(); i += 3) x[i] = Cf(0.0f, 0.0f);
      add_preamble(x, c, 300, 1e-7f);
      ASSERT_TRUE(same_sync(c, x, "floor amplitude " + std::to_string(amp)));
    }
  }
}

TEST(SyncDiff, NonFiniteAndSignedZeroSamples) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Cf poisons[] = {Cf(0.0f, -0.0f), Cf(-0.0f, 0.0f), Cf(-0.0f, -0.0f),
                        Cf(inf, 0.5f),   Cf(-inf, 0.5f),  Cf(0.5f, -inf),
                        Cf(nan, 0.5f),   Cf(0.5f, nan),   Cf(inf, nan),
                        Cf(nan, inf),    Cf(3e19f, 0.0f), Cf(3e19f, -3e19f)};
  Rng rng(difftest::kSeed + 3);
  for (const Chain& c : all_chains()) {
    const std::size_t n = 700 + c.len();
    const std::size_t offsets = n - c.len() + 1;
    const std::size_t tail = offsets / kBlock * kBlock;  // last block's start
    // A sample at k first enters the window at offset k − L + 1.  Put it
    // where that is a block's first offset, inside a block, and in the
    // partial last block, and where it is the first sample of a block's
    // window.
    const std::size_t positions[] = {
        5 * kBlock + c.len() - 1, 7 * kBlock + 6 + c.len() - 1,
        tail + 3 + c.len() - 1,   5 * kBlock,
        tail + 1,                 n - 1};
    for (const Cf& poison : poisons) {
      for (std::size_t k : positions) {
        for (std::size_t at : {std::size_t{40}, k + 1, tail}) {
          Iq x = complex_noise(n, 0.2, rng);
          add_preamble(x, c, at);
          x[k] = poison;
          char ctx[96];
          std::snprintf(ctx, sizeof(ctx), "(%a, %a) at %zu, preamble at %zu",
                        static_cast<double>(poison.real()),
                        static_cast<double>(poison.imag()), k, at);
          ASSERT_TRUE(same_sync(c, x, ctx));
          // A sample that is not finite, or whose float |x|² overflows,
          // makes both sides throw; production names it.
          if (std::isfinite(std::norm(poison))) continue;
          const Outcome fast = outcome([&] { return c.rx.synchronize(x); });
          ASSERT_TRUE(fast.error.has_value()) << ctx;
          EXPECT_NE(fast.error->find("sample " + std::to_string(k) + " of"),
                    std::string::npos)
              << ctx << ": " << *fast.error;
        }
      }
    }
  }
}

TEST(SyncDiff, NearTiedCopiesOfThePreamble) {
  // Two copies of one window, the second scaled by (1 + k·2⁻²⁴).  The
  // metric is scale-free, so the two peaks differ by an ulp or so, and
  // which one wins rests on the rounding of each sum, hypotf, sqrt and
  // the division, and on the earliest-offset rule when they tie.
  // Copies in one block and in neighbouring blocks, with and without a
  // shared noise window; every third capture ends with the second copy,
  // so its offset is the last one (in a partial last block unless the
  // offset count is a multiple of 16).
  const double min_metric[] = {0.0};
  Rng rng(difftest::kSeed + 4);
  for (const Chain& c : all_chains()) {
    const std::size_t gaps[] = {c.len(), c.len() + 3, c.len() + kBlock + 5,
                                2 * c.len() + kBlock};
    for (int trial = 0; trial < 1000; ++trial) {
      const std::size_t gap = gaps[trial % 4];
      const std::size_t first = trial % 8 < 4 ? 2 : kBlock + 7;
      const std::size_t n =
          first + gap + c.len() + (trial % 3 == 0 ? 0 : c.len() + 9);
      const float amp = 0.3f + 0.7f * static_cast<float>(rng.uniform());
      const int k = static_cast<int>(rng.uniform_int(41)) - 20;
      const float s = 1.0f + static_cast<float>(k) * 0x1p-24f;
      const Iq noise = trial % 2 ? complex_noise(c.len(), 1e-6, rng)
                                 : Iq(c.len(), Cf(0.0f, 0.0f));
      Iq x(n, Cf(0.0f, 0.0f));
      for (std::size_t i = 0; i < c.len(); ++i) {
        x[first + i] = amp * c.preamble[i] + noise[i];
        x[first + gap + i] = (amp * s) * c.preamble[i] + noise[i];
      }
      ASSERT_TRUE(same_sync(c, x,
                            "trial " + std::to_string(trial) + ", k " +
                                std::to_string(k),
                            min_metric));
    }
  }
}

TEST(SyncDiff, ThresholdAtTheWinningMetric) {
  // `best.metric < min_metric` rejects: a threshold equal to the peak
  // keeps the packet, the next double up drops it.
  Rng rng(difftest::kSeed + 5);
  for (const Chain& c : all_chains()) {
    Iq x = complex_noise(900, 0.1, rng);
    add_preamble(x, c, 333);
    const auto ref = oracle::synchronize(c.preamble, c.energy, x, 0.0);
    ASSERT_TRUE(ref.has_value());
    const double at_peak[] = {
        ref->metric, std::nextafter(ref->metric, 0.0),
        std::nextafter(ref->metric, 2.0), -1.0};
    ASSERT_TRUE(same_sync(c, x, "thresholds around the peak", at_peak));
  }
}

TEST(SyncDiff, DoesNotReadPastTheSpan) {
  // The capture is a prefix of a longer buffer whose next sample would
  // complete a perfect preamble: any offset past the span's last one
  // would win.
  Rng rng(difftest::kSeed + 6);
  for (const Chain& c : all_chains()) {
    for (std::size_t n = c.len(); n <= c.len() + 2 * kBlock + 1; ++n) {
      Iq buffer = complex_noise(n + 1, 0.5, rng);
      add_preamble(buffer, c, n + 1 - c.len(), 4.0f);
      const std::span<const Cf> capture(buffer.data(), n);
      ASSERT_TRUE(same_sync(c, capture, "prefix of a longer buffer"));
    }
  }
}

}  // namespace
}  // namespace ms
