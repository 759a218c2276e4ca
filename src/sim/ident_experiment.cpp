#include "sim/ident_experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "channel/awgn.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/ops.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/zigbee/zigbee.h"
#include "sim/runner/trial_runner.h"
#include "sim/runner/waveform_cache.h"

namespace ms {

double IdentResult::accuracy(Protocol p) const {
  const std::size_t i = protocol_index(p);
  const std::size_t n = trials(p);
  return n == 0 ? 0.0
                : static_cast<double>(confusion[i][i]) / static_cast<double>(n);
}

double IdentResult::average_accuracy() const {
  double acc = 0.0;
  for (Protocol p : kAllProtocols) acc += accuracy(p);
  return acc / 4.0;
}

std::size_t IdentResult::trials(Protocol p) const {
  const std::size_t i = protocol_index(p);
  std::size_t n = 0;
  for (std::size_t j = 0; j < 5; ++j) n += confusion[i][j];
  return n;
}

namespace {

/// Cache lookup helper: key the drawn random content under the
/// Excitation kind and synthesize via `synth` on first sight.  Returns
/// a mutable copy so downstream channel/fault stages can edit in place.
Iq cached_excitation(Protocol p, std::vector<std::uint8_t> drawn,
                     const std::function<Iq()>& synth) {
  WaveformKey key;
  key.kind = WaveformKind::Excitation;
  key.protocol = static_cast<std::uint8_t>(protocol_index(p));
  key.payload = std::move(drawn);
  return Iq(*WaveformCache::instance().get_or_synthesize(key, synth));
}

/// Packet-start waveform as the tag hears it: the deterministic
/// packet-detection region followed by random payload (a real packet
/// does not stop after its preamble, and template windows may extend
/// into the payload-adjacent region).
///
/// Caching discipline: every random draw happens HERE, before the cache
/// lookup, in the exact order the uncached code drew — the Rng stream,
/// and therefore every downstream jitter/noise/amplitude draw, is
/// untouched.  The drawn content becomes the cache key; the synthesis
/// closure is a pure function of it.
Iq excitation_waveform(Protocol p, const IdentTrialConfig& cfg, Rng& rng) {
  switch (p) {
    case Protocol::WifiB: {
      // The long preamble continues well past 40 µs; use more of it.
      const bool short_preamble =
          rng.chance(cfg.wifi_b_short_preamble_fraction);
      return cached_excitation(
          p, {static_cast<std::uint8_t>(short_preamble)}, [&] {
            WifiBConfig phy_cfg;
            phy_cfg.short_preamble = short_preamble;
            const WifiBPhy phy(phy_cfg);
            Iq full = phy.preamble_waveform();
            full.resize(std::min<std::size_t>(
                full.size(),
                static_cast<std::size_t>(80e-6 * phy.sample_rate_hz())));
            return full;
          });
    }
    case Protocol::WifiN: {
      const Bits coded = rng.bits(48 * 10);  // 40 µs of payload symbols
      return cached_excitation(p, coded, [&] {
        const WifiNPhy phy;
        Iq iq = clean_preamble(p, /*extended=*/true);
        const Iq body = phy.modulate_coded_symbols(coded);
        iq.insert(iq.end(), body.begin(), body.end());
        return iq;
      });
    }
    case Protocol::Ble: {
      const Bits payload = rng.bits(40);
      return cached_excitation(p, payload, [&] {
        const BlePhy phy;
        Bits air = phy.preamble_bits();
        air.insert(air.end(), payload.begin(), payload.end());
        return phy.modulate_bits(air);
      });
    }
    case Protocol::Zigbee: {
      std::vector<uint8_t> symbols(8, 0);  // preamble
      for (int i = 0; i < 3; ++i)
        symbols.push_back(static_cast<uint8_t>(rng.uniform_int(16)));
      return cached_excitation(p, symbols, [&] {
        const ZigbeePhy phy;
        return phy.modulate_symbols(symbols);
      });
    }
  }
  return {};
}

}  // namespace

Samples make_ident_trace(Protocol p, const IdentTrialConfig& cfg, Rng& rng) {
  const double rate = native_sample_rate(p);
  // The tag always receives the full packet-detection region; the
  // identifier's window length decides how much of it is used.
  Iq iq = excitation_waveform(p, cfg, rng);

  // Random start jitter: noise-only samples before the packet.
  if (cfg.multipath) {
    const MultipathChannel ch = sample_multipath(cfg.multipath_cfg, rate, rng);
    iq = ch.apply(iq);
  }

  // Excitation-side faults perturb the clean IQ before noise is added
  // (the interferer/dropout happens on the air, not in the receiver).
  // Gated so a fault-free config consumes no extra Rng draws.
  if (cfg.faults.any_excitation_fault()) {
    FaultInjector injector(cfg.faults);
    iq = injector.perturb_excitation(std::move(iq), rate, rng);
  }

  const std::size_t jitter =
      static_cast<std::size_t>(rng.uniform(0.0, cfg.jitter_max_s) * rate);
  const double sig_power = mean_power(std::span<const Cf>(iq));
  const double noise_power = sig_power / db_to_linear(cfg.rf_snr_db);
  Iq trace = complex_noise(jitter, noise_power, rng);
  trace.reserve(jitter + iq.size());
  trace.insert(trace.end(), iq.begin(), iq.end());
  Iq noisy = add_noise_power(trace, noise_power, rng);

  // Random range/orientation → amplitude scale.
  const float amp = static_cast<float>(rng.uniform(cfg.amp_min, cfg.amp_max));
  for (Cf& v : noisy) v *= amp;

  Samples trace_out = acquire_trace(noisy, rate, cfg.ident.templates.adc_rate_hz,
                                    cfg.ident.templates.front_end);

  // ADC-side faults (truncated / duplicated sample runs) hit the stream
  // the identifier actually consumes.
  if (cfg.faults.any_adc_fault()) {
    FaultInjector injector(cfg.faults);
    trace_out = injector.perturb_adc(std::move(trace_out), rng);
  }
  return trace_out;
}

IdentResult run_ident_experiment(const IdentTrialConfig& cfg,
                                 std::size_t trials_per_protocol) {
  TrialRunner runner({cfg.threads, cfg.seed});
  const ProtocolIdentifier identifier(cfg.ident);
  // Grid: point = true protocol, trial = Monte-Carlo repetition.  Each
  // cell returns the detected column; the confusion tallies merge in
  // fixed grid order, so the result is identical at any thread count.
  return runner.run_reduce(
      kAllProtocols.size(), trials_per_protocol, IdentResult{},
      [&](std::size_t point, std::size_t, Rng& rng) -> std::size_t {
        const Protocol p = kAllProtocols[point];
        const Samples trace = make_ident_trace(p, cfg, rng);
        const auto detected = identifier.identify(trace);
        return detected ? protocol_index(*detected) : 4;
      },
      [](IdentResult& acc, std::size_t point, std::size_t,
         std::size_t detected) { ++acc.confusion[point][detected]; });
}

namespace {

using detail::CalTrial;
using detail::ThresholdSearch;

std::vector<CalTrial> collect_calibration_trials(
    IdentTrialConfig cfg, std::size_t trials_per_protocol) {
  cfg.ident.decision = DecisionMode::Ordered;
  const ProtocolIdentifier identifier(cfg.ident);
  TrialRunner runner({cfg.threads, cfg.seed ^ 0xc0ffee});
  // run_grid returns the trials already in (protocol, trial) order.
  return runner.run_grid(
      kAllProtocols.size(), trials_per_protocol,
      [&](std::size_t point, std::size_t, Rng& rng) -> CalTrial {
        const Protocol p = kAllProtocols[point];
        return {point, identifier.scores(make_ident_trace(p, cfg, rng))};
      });
}

}  // namespace

namespace detail {

ThresholdSearch search_thresholds(const std::vector<CalTrial>& trials,
                                  const std::array<Protocol, 4>& order) {
  constexpr std::size_t kGrid = kThresholdGrid.size();
  constexpr std::size_t kLevels = kGrid + 1;
  std::array<std::size_t, 4> stage{};  // protocol index tested at stage j
  for (std::size_t j = 0; j < 4; ++j) stage[j] = protocol_index(order[j]);

  // Bucket each trial once: level[j] counts the grid values stage j's
  // score is strictly above, so `score > kThresholdGrid[k]` holds exactly
  // when k < level[j].  A NaN score is above none of them (level 0), as
  // the > test never fires on it.
  struct Leveled {
    std::size_t truth;
    std::array<std::uint8_t, 4> level;
  };
  std::vector<Leveled> leveled;
  leveled.reserve(trials.size());
  std::array<std::size_t, 4> total{};
  for (const CalTrial& tr : trials) {
    Leveled l{tr.truth, {}};
    for (std::size_t j = 0; j < 4; ++j)
      for (double g : kThresholdGrid) l.level[j] += tr.scores[stage[j]] > g;
    ++total[tr.truth];
    leveled.push_back(l);
  }

  // A trial is correct only at the stage that tests its own protocol.
  // For each (t0, t1), one pass over the trials counts the stage-0 and
  // stage-1 hits and files the survivors that stage 2 or 3 can still get
  // right into count tables; every (t2, t3) then reads prefix and suffix
  // sums of those tables.
  ThresholdSearch best;
  std::array<std::size_t, 4> correct{};
  for (std::size_t k0 = 0; k0 < kGrid; ++k0)
    for (std::size_t k1 = 0; k1 < kGrid; ++k1) {
      std::size_t hit0 = 0, hit1 = 0;
      // third[l2]: third-protocol survivors by stage-2 level.
      // fourth[l2][l3]: fourth-protocol survivors by stage-2/3 levels.
      std::array<std::size_t, kLevels> third{};
      std::array<std::array<std::size_t, kLevels>, kLevels> fourth{};
      for (const Leveled& l : leveled) {
        if (l.level[0] > k0) {
          hit0 += l.truth == stage[0];
        } else if (l.level[1] > k1) {
          hit1 += l.truth == stage[1];
        } else if (l.truth == stage[2]) {
          ++third[l.level[2]];
        } else if (l.truth == stage[3]) {
          ++fourth[l.level[2]][l.level[3]];
        }
      }
      correct[stage[0]] = hit0;
      correct[stage[1]] = hit1;

      // above2[l]: third-protocol survivors at stage-2 level >= l.
      std::array<std::size_t, kLevels + 1> above2{};
      for (std::size_t l = kLevels; l-- > 0;)
        above2[l] = above2[l + 1] + third[l];
      // reach3[l3]: fourth-protocol survivors that stage 2 lets through
      // (stage-2 level <= k2), by stage-3 level.
      std::array<std::size_t, kLevels> reach3{};
      for (std::size_t k2 = 0; k2 < kGrid; ++k2) {
        correct[stage[2]] = above2[k2 + 1];
        for (std::size_t l = 0; l < kLevels; ++l) reach3[l] += fourth[k2][l];
        std::array<std::size_t, kLevels + 1> above3{};
        for (std::size_t l = kLevels; l-- > 0;)
          above3[l] = above3[l + 1] + reach3[l];
        for (std::size_t k3 = 0; k3 < kGrid; ++k3) {
          correct[stage[3]] = above3[k3 + 1];
          double acc = 0.0;
          for (std::size_t i = 0; i < 4; ++i)
            acc += total[i] ? static_cast<double>(correct[i]) /
                                  static_cast<double>(total[i])
                            : 0.0;
          acc /= 4.0;
          if (acc > best.acc) {
            best.acc = acc;
            best.thr[stage[0]] = kThresholdGrid[k0];
            best.thr[stage[1]] = kThresholdGrid[k1];
            best.thr[stage[2]] = kThresholdGrid[k2];
            best.thr[stage[3]] = kThresholdGrid[k3];
          }
        }
      }
    }
  return best;
}

}  // namespace detail

OrderedCalibration calibrate_ordered_matching(
    IdentTrialConfig cfg, std::size_t trials_per_protocol) {
  const std::vector<CalTrial> trials =
      collect_calibration_trials(cfg, trials_per_protocol);
  // All 24 permutations × the full threshold grid (§2.3.2's brute
  // force, found by counting), one task per matching order.  Merging in
  // permutation order reproduces the serial next_permutation scan byte
  // for byte.
  std::vector<std::array<Protocol, 4>> orders;
  std::array<std::size_t, 4> perm = {0, 1, 2, 3};
  do {
    orders.push_back({kAllProtocols[perm[0]], kAllProtocols[perm[1]],
                      kAllProtocols[perm[2]], kAllProtocols[perm[3]]});
  } while (std::next_permutation(perm.begin(), perm.end()));

  TrialRunner runner({cfg.threads, cfg.seed});
  const auto searched = runner.run_grid(
      orders.size(), 1, [&](std::size_t i, std::size_t, Rng&) {
        return detail::search_thresholds(trials, orders[i]);
      });

  // Every search scores at least one tuple, and every score is >= 0, so
  // the first order always beats the -1 start.
  OrderedCalibration best;
  best.calibration_accuracy = -1.0;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (searched[i].acc > best.calibration_accuracy) {
      best.calibration_accuracy = searched[i].acc;
      best.order = orders[i];
      best.thresholds = searched[i].thr;
    }
  }
  return best;
}

}  // namespace ms
