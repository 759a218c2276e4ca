#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <span>

#include "analog/adc.h"
#include "analog/rectifier.h"
#include "channel/awgn.h"
#include "common/error.h"
#include "common/units.h"
#include "core/ident/frontend.h"
#include "core/ident/identifier.h"
#include "core/overlay/receiver.h"
#include "core/tag/link_session.h"
#include "dsp/fir.h"
#include "dsp/mixer.h"
#include "dsp/ops.h"
#include "phy/ble/ble.h"
#include "phy/convolutional.h"
#include "phy/dsss/wifi_b.h"
#include "phy/interleaver.h"
#include "phy/ofdm/mcs.h"
#include "phy/ofdm/subcarriers.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/scrambler.h"
#include "phy/zigbee/zigbee.h"
#include "sim/ident_experiment.h"
#include "sim/runner/trial_runner.h"
#include "sim/runner/waveform_cache.h"
#include "sim/workload/scenarios.h"
#include "sim/workload/workload.h"
#include "trace.h"

namespace perfbench {

using namespace ms;

void clear_waveform_cache() { WaveformCache::instance().clear(); }

namespace {

bool traced() { return active_tracer() != nullptr; }

/// FNV-1a over everything a pass outputs.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) { h_ = fnv1a(p, n, h_); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[128];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

// ---------------------------------------------------------------------
// Identification.  The untraced pass calls calibrate_ordered_matching and
// run_ident_experiment.  The traced pass rebuilds run_ident_experiment
// and make_ident_trace from the public calls they make, drawing the Rng
// in the same order, so the digest proves it did the same work.

// Per-trial excitation, as make_ident_trace draws and synthesizes it
// (sim/ident_experiment.cpp); only the synthesis runs inside phy.synth.
Iq traced_excitation(Protocol p, const IdentTrialConfig& cfg, Rng& rng) {
  WaveformKey key;
  key.kind = WaveformKind::Excitation;
  key.protocol = static_cast<std::uint8_t>(protocol_index(p));
  std::function<Iq()> synth;
  switch (p) {
    case Protocol::WifiB: {
      const bool short_preamble = rng.chance(cfg.wifi_b_short_preamble_fraction);
      key.payload = {static_cast<std::uint8_t>(short_preamble)};
      synth = [short_preamble] {
        WifiBConfig phy_cfg;
        phy_cfg.short_preamble = short_preamble;
        const WifiBPhy phy(phy_cfg);
        Iq full = phy.preamble_waveform();
        full.resize(std::min<std::size_t>(
            full.size(), static_cast<std::size_t>(80e-6 * phy.sample_rate_hz())));
        return full;
      };
      break;
    }
    case Protocol::WifiN: {
      key.payload = rng.bits(48 * 10);
      synth = [&coded = key.payload] {
        const WifiNPhy phy;
        Iq iq = clean_preamble(Protocol::WifiN, /*extended=*/true);
        const Iq body = phy.modulate_coded_symbols(coded);
        iq.insert(iq.end(), body.begin(), body.end());
        return iq;
      };
      break;
    }
    case Protocol::Ble: {
      key.payload = rng.bits(40);
      synth = [&payload = key.payload] {
        const BlePhy phy;
        Bits air = phy.preamble_bits();
        air.insert(air.end(), payload.begin(), payload.end());
        return phy.modulate_bits(air);
      };
      break;
    }
    case Protocol::Zigbee: {
      std::vector<std::uint8_t> symbols(8, 0);
      for (int i = 0; i < 3; ++i)
        symbols.push_back(static_cast<std::uint8_t>(rng.uniform_int(16)));
      key.payload = std::move(symbols);
      synth = [&symbols = key.payload] {
        const ZigbeePhy phy;
        return phy.modulate_symbols(symbols);
      };
      break;
    }
  }
  Scope lookup(Layer::CacheLookup);
  Iq iq(*WaveformCache::instance().get_or_synthesize(key, [&] {
    Scope s(Layer::PhySynth);
    Iq out = synth();
    s.units(static_cast<double>(out.size()));
    return out;
  }));
  lookup.units(static_cast<double>(iq.size()));
  return iq;
}

/// rf_envelope (core/ident/frontend.cpp) with its DSP calls as children.
Samples traced_rf_envelope(std::span<const Cf> iq, double rate,
                           const FrontEndConfig& cfg) {
  Scope fe(Layer::Frontend);
  fe.units(static_cast<double>(iq.size()));
  MS_CHECK(rate > 0.0);
  if (iq.empty()) return {};
  const double cutoff_frac = std::min(0.49, cfg.bandwidth_hz / rate);
  std::vector<float> taps;
  {
    Scope s(Layer::DesignLowpass);
    taps = design_lowpass(cutoff_frac, cfg.lowpass_taps);
    s.units(static_cast<double>(taps.size()));
  }
  Iq filtered;
  {
    Scope s(Layer::FirFilter);
    filtered = fir_filter(iq, taps);
    s.units(static_cast<double>(iq.size()));
  }
  Samples env = envelope(filtered);
  Samples inst_freq;
  {
    Scope s(Layer::Discriminate);
    inst_freq = discriminate(filtered, rate);
    s.units(static_cast<double>(filtered.size()));
  }
  const float f_sat = static_cast<float>(cfg.fm_ref_hz);
  for (std::size_t i = 0; i < env.size(); ++i) {
    float f = i < inst_freq.size() ? inst_freq[i] : 0.0f;
    f = std::clamp(f, -f_sat, f_sat);
    const double gain =
        1.0 + cfg.fm_to_am_gain * static_cast<double>(f) / cfg.fm_ref_hz;
    env[i] *= static_cast<float>(gain);
  }
  for (float& v : env) v *= static_cast<float>(cfg.peak_voltage);
  return env;
}

/// make_ident_trace (sim/ident_experiment.cpp) for a fault-free config.
Samples traced_ident_trace(Protocol p, const IdentTrialConfig& cfg, Rng& rng) {
  const double rate = native_sample_rate(p);
  Iq iq = traced_excitation(p, cfg, rng);
  if (cfg.multipath) {
    Scope s(Layer::Multipath);
    const MultipathChannel ch = sample_multipath(cfg.multipath_cfg, rate, rng);
    iq = ch.apply(iq);
    s.units(static_cast<double>(iq.size()));
  }
  const std::size_t jitter =
      static_cast<std::size_t>(rng.uniform(0.0, cfg.jitter_max_s) * rate);
  const double sig_power = mean_power(std::span<const Cf>(iq));
  const double noise_power = sig_power / db_to_linear(cfg.rf_snr_db);
  Iq trace;
  {
    Scope s(Layer::Noise);
    trace = complex_noise(jitter, noise_power, rng);
    s.units(static_cast<double>(jitter));
  }
  trace.reserve(jitter + iq.size());
  trace.insert(trace.end(), iq.begin(), iq.end());
  Iq noisy;
  {
    Scope s(Layer::Awgn);
    noisy = add_noise_power(trace, noise_power, rng);
    s.units(static_cast<double>(trace.size()));
  }
  const float amp = static_cast<float>(rng.uniform(cfg.amp_min, cfg.amp_max));
  for (Cf& v : noisy) v *= amp;

  // acquire_trace (core/ident/frontend.cpp).
  const FrontEndConfig& fe = cfg.ident.templates.front_end;
  const Samples env = traced_rf_envelope(noisy, rate, fe);
  Samples v;
  {
    Scope s(Layer::Rectifier);
    const Rectifier rect(fe.rectifier);
    v = rect.run(env, rate);
    s.units(static_cast<double>(env.size()));
  }
  Scope s(Layer::Adc);
  s.units(static_cast<double>(v.size()));
  AdcConfig adc_cfg;
  adc_cfg.sample_rate_hz = cfg.ident.templates.adc_rate_hz;
  adc_cfg.vref = std::max(0.01, static_cast<double>(peak_abs(v)));
  const Adc adc(adc_cfg);
  return adc.capture(v, rate);
}

/// The ProtocolIdentifier that run_ident_experiment and
/// calibrate_ordered_matching's trial collection build on every call.
ProtocolIdentifier traced_identifier(const IdentifierConfig& cfg) {
  Scope s(Layer::IdentTemplates);
  return ProtocolIdentifier(cfg);
}

std::array<double, 4> traced_scores(const ProtocolIdentifier& id,
                                    const Samples& trace) {
  Scope s(Layer::Scores);
  s.units(static_cast<double>(trace.size()));
  return id.scores(trace);
}

/// ProtocolIdentifier::classify's verdict (abstention off) from the
/// scores, as a confusion-matrix column (4 = no match).
std::size_t decide(const IdentifierConfig& cfg, const std::array<double, 4>& s) {
  if (cfg.decision == DecisionMode::Ordered) {
    for (Protocol p : cfg.order) {
      const std::size_t idx = protocol_index(p);
      if (s[idx] - cfg.thresholds[idx] > 0.0) return idx;
    }
    return 4;
  }
  const auto best = static_cast<std::size_t>(
      std::distance(s.begin(), std::max_element(s.begin(), s.end())));
  return s[best] < cfg.blind_min_score ? 4 : best;
}

IdentResult traced_ident_experiment(const IdentTrialConfig& cfg,
                                    std::size_t trials) {
  TrialRunner runner({1, cfg.seed});
  const ProtocolIdentifier id = traced_identifier(cfg.ident);
  return runner.run_reduce(
      kAllProtocols.size(), trials, IdentResult{},
      [&](std::size_t point, std::size_t, Rng& rng) -> std::size_t {
        const Samples trace = traced_ident_trace(kAllProtocols[point], cfg, rng);
        {
          Scope s(Layer::Decide);
          if (peak_abs(trace) < cfg.ident.min_trigger_v) return 4;
        }
        const std::array<double, 4> scores = traced_scores(id, trace);
        Scope s(Layer::Decide);
        return decide(cfg.ident, scores);
      },
      [](IdentResult& acc, std::size_t point, std::size_t,
         std::size_t detected) { ++acc.confusion[point][detected]; });
}

/// The trial collection calibrate_ordered_matching runs before its
/// search, replayed with spans so the search's own time can be split
/// off: sim.calibration.search = calibrate_ordered_matching − this.
/// Call it on an empty waveform cache; it leaves the cache empty again,
/// so the collection inside calibrate_ordered_matching runs as cold as
/// in an untraced pass.
void replay_calibration_collect(IdentTrialConfig cfg, std::size_t trials) {
  Scope s(Layer::CalibrationCollect);
  cfg.ident.decision = DecisionMode::Ordered;
  const ProtocolIdentifier id = traced_identifier(cfg.ident);
  TrialRunner runner({1, cfg.seed ^ 0xc0ffee});
  runner.run_grid(kAllProtocols.size(), trials,
                  [&](std::size_t point, std::size_t, Rng& rng) {
                    return traced_scores(
                        id, traced_ident_trace(kAllProtocols[point], cfg, rng));
                  });
  clear_waveform_cache();
}

// 24 matching orders x 12^4 threshold tuples (sim/ident_experiment.cpp).
constexpr double kTupleEvalsPerCalibration = 24.0 * 12 * 12 * 12 * 12;

struct IdentCase {
  const char* label;
  double adc_rate_hz;
  std::size_t preprocess_len;  ///< L_p
  std::size_t match_len;       ///< L_t
};

class IdentWorkload final : public Workload {
 public:
  IdentWorkload(std::uint64_t seed, std::vector<IdentCase> cases, bool calibrate,
                std::size_t trials, std::size_t cal_trials)
      : seed_(seed),
        cases_(std::move(cases)),
        calibrate_(calibrate),
        trials_(trials),
        cal_trials_(cal_trials) {}

  /// run_ident_experiment and calibrate_ordered_matching take no
  /// prebuilt identifier: they build one per call, inside the pass.  So
  /// set-up keeps nothing; it times one template build per configuration,
  /// the work each pass repeats once (blind) or twice (calibrated) per
  /// configuration.
  void setup() override {
    for (const IdentCase& c : cases_) {
      Scope s(Layer::IdentTemplates);
      const ProtocolIdentifier id(config(c).ident);
    }
  }

  std::size_t units_per_pass() const override {
    return cases_.size() * kAllProtocols.size() *
           (trials_ + (calibrate_ ? cal_trials_ : 0));
  }

  PassResult pass(std::size_t threads) override {
    PassResult out;
    Digest d;
    double tuple_evals = 0.0, cache_hits = 0.0, cache_lookups = 0.0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      IdentTrialConfig cfg = config(cases_[i]);
      cfg.threads = threads;
      // Every configuration pays for its own waveform synthesis, as a
      // figure run does.  The configurations draw the same excitations,
      // so without this all but the first would run on a warm cache.
      clear_waveform_cache();
      if (calibrate_) {
        if (traced()) replay_calibration_collect(cfg, cal_trials_);
        OrderedCalibration cal;
        {
          Scope s(Layer::CalibrationRun);
          cal = calibrate_ordered_matching(cfg, cal_trials_);
          s.units(kTupleEvalsPerCalibration);
        }
        tuple_evals += kTupleEvalsPerCalibration;
        for (Protocol p : cal.order) d.u64(protocol_index(p));
        for (double t : cal.thresholds) d.f64(t);
        d.f64(cal.calibration_accuracy);
        cfg.ident.decision = DecisionMode::Ordered;
        cfg.ident.order = cal.order;
        cfg.ident.thresholds = cal.thresholds;
      }
      const IdentResult r = traced() ? traced_ident_experiment(cfg, trials_)
                                     : run_ident_experiment(cfg, trials_);
      const WaveformCache::Stats st = WaveformCache::instance().stats();
      cache_hits += static_cast<double>(st.hits);
      cache_lookups += static_cast<double>(st.hits + st.misses);
      for (const auto& row : r.confusion)
        for (std::size_t v : row) d.u64(v);
      if (!out.summary.empty()) out.summary += ' ';
      out.summary += cases_[i].label + format("=%.3f", r.average_accuracy());
    }
    out.digest = d.value();
    out.units = units_per_pass();
    out.counters = {{"cache_hits", cache_hits},
                    {"cache_lookups", cache_lookups},
                    {"tuple_evals", tuple_evals}};
    return out;
  }

 private:
  IdentTrialConfig config(const IdentCase& c) const {
    IdentTrialConfig cfg;
    cfg.ident.templates.adc_rate_hz = c.adc_rate_hz;
    cfg.ident.templates.preprocess_len = c.preprocess_len;
    cfg.ident.templates.match_len = c.match_len;
    cfg.ident.compute = ComputeMode::OneBit;
    cfg.seed = seed_;
    if (!calibrate_) {
      cfg.ident.decision = DecisionMode::Blind;
      cfg.multipath = true;
      cfg.wifi_b_short_preamble_fraction = 0.3;
    }
    return cfg;
  }

  std::uint64_t seed_;
  std::vector<IdentCase> cases_;
  bool calibrate_;
  std::size_t trials_;
  std::size_t cal_trials_;
};

// ---------------------------------------------------------------------
// Overlay decode: carrier -> tag_modulate -> AWGN on a noise-padded
// capture -> OverlayReceiver::receive, plus full 802.11n frames through
// WifiNPhy::modulate_frame / demodulate_frame.  The packet shape is the
// overlay figure benches' (bench_waterfalls, bench_fig17_refmod,
// bench_validation_waveform): 40 sequences per packet, and
// bench_waterfalls' 8 packets per SNR.  The capture around it is
// receiver_test's FindsPacketInNoise: 500 noise samples before the
// packet and 300 after.  The frames are bench_mcs_rates' grid.

constexpr std::array<double, 5> kOverlaySnrDb = {-2.0, 2.0, 6.0, 10.0, 14.0};
// bench_mcs_rates: MCS 0-7 x these SNRs x 4 frames of 100 bytes.
constexpr std::array<double, 5> kFrameSnrDb = {6.0, 12.0, 18.0, 24.0, 30.0};
constexpr std::array<OverlayMode, 2> kOverlayModes = {OverlayMode::Mode1,
                                                      OverlayMode::Mode2};
constexpr std::array<Layer, 4> kDecodeLayer = {
    Layer::DecodeWifiB, Layer::DecodeWifiN, Layer::DecodeBle, Layer::DecodeZigbee};

struct OverlayCell {
  std::uint32_t synced = 0;
  std::uint32_t productive_errors = 0;
  std::uint32_t tag_errors = 0;
  std::uint32_t productive_bits = 0;
  std::uint32_t tag_bits = 0;
  std::uint32_t failed = 0;
};

std::uint32_t bit_errors(const Bits& sent, const Bits& got) {
  std::uint32_t e = 0;
  for (std::size_t i = 0; i < sent.size(); ++i)
    e += i >= got.size() || sent[i] != got[i];
  return e;
}

/// OverlayReceiver::receive (core/overlay/receiver.cpp) as sync + decode.
std::optional<OverlayDecoded> traced_receive(const OverlayReceiver& rx,
                                             Protocol p, std::span<const Cf> iq,
                                             std::size_t n_sequences) {
  std::optional<SyncResult> sync;
  {
    Scope s(Layer::Sync);
    sync = rx.synchronize(iq, 0.5);
    s.units(static_cast<double>(iq.size()));
  }
  if (!sync || sync->payload_start >= iq.size()) return std::nullopt;
  const auto payload = iq.subspan(sync->payload_start);
  Scope s(kDecodeLayer[protocol_index(p)]);
  s.units(static_cast<double>(payload.size()));
  try {
    return rx.codec().decode(payload, n_sequences);
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// WifiNPhy::demodulate_frame (phy/ofdm/wifi_n.cpp) with Viterbi split out.
WifiNPhy::RxFrame traced_demodulate_frame(const WifiNPhy& phy,
                                          std::span<const Cf> iq,
                                          std::size_t payload_bytes) {
  Scope s(Layer::WifiNRx);
  s.units(static_cast<double>(iq.size()));
  const WifiNConfig& cfg = phy.config();
  WifiNPhy::RxFrame rx;
  const std::size_t n_sym = phy.symbols_for_payload(payload_bytes * 8);
  if (iq.size() < WifiNPhy::kPreambleSamples + n_sym * kOfdmSymbolLen) return rx;
  const Iq channel = phy.estimate_channel(iq.first(WifiNPhy::kPreambleSamples));
  const Bits coded = phy.demodulate_symbol_bits(
      iq.subspan(WifiNPhy::kPreambleSamples), n_sym, channel);
  const Bits deint =
      deinterleave_11n(coded, wifi_n_coded_bits_per_symbol(cfg.modulation),
                       bits_per_point(cfg.modulation), cfg.path);
  const Bits unpunctured = depuncture(deint, cfg.coding_num, cfg.coding_den,
                                      n_sym * cfg.data_bits_per_symbol());
  Bits decoded;
  {
    Scope v(Layer::Viterbi);
    decoded = viterbi_decode(unpunctured);
    v.units(static_cast<double>(unpunctured.size()));
  }
  const Bits clear = scramble_11n(decoded, cfg.scrambler_seed);
  if (clear.size() < 16 + payload_bytes * 8) return rx;
  rx.payload = bits_to_bytes_lsb(
      std::span<const std::uint8_t>(clear).subspan(16, payload_bytes * 8));
  rx.ok = true;
  return rx;
}

class OverlayWorkload final : public Workload {
 public:
  static constexpr std::size_t kPacketsPerPoint = 8;
  static constexpr std::size_t kSequences = 40;
  static constexpr std::size_t kLeadSamples = 500;
  static constexpr std::size_t kTailSamples = 300;
  static constexpr std::size_t kFramesPerPoint = 4;
  static constexpr std::size_t kFrameBytes = 100;
  static constexpr std::size_t kPoints =
      kAllProtocols.size() * kOverlayModes.size() * kOverlaySnrDb.size();
  static constexpr std::size_t kFramePoints = kMcsCount * kFrameSnrDb.size();

  explicit OverlayWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    receivers_.clear();
    for (Protocol p : kAllProtocols)
      for (OverlayMode m : kOverlayModes) {
        Scope s(Layer::OverlayInit);
        receivers_.emplace_back(p, mode_params(p, m));
      }
    frame_phys_.clear();
    for (unsigned mcs = 0; mcs < kMcsCount; ++mcs) {
      Scope s(Layer::OverlayInit);
      frame_phys_.emplace_back(WifiNConfig::from_mcs(mcs));
    }
  }

  std::size_t units_per_pass() const override {
    return kPoints * kPacketsPerPoint + kFramePoints * kFramesPerPoint;
  }

  PassResult pass(std::size_t threads) override {
    Digest d;
    TrialRunner runner({threads, seed_});
    const std::vector<OverlayCell> cells = runner.run_grid(
        kPoints, kPacketsPerPoint,
        [&](std::size_t point, std::size_t, Rng& rng) { return packet(point, rng); });
    std::size_t failed = 0;
    std::array<double, 4> tag_err{}, tag_bits{};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const OverlayCell& c = cells[i];
      d.bytes(&c, sizeof c);
      failed += c.failed;
      const std::size_t proto = i / kPacketsPerPoint / (kPoints / 4);
      tag_err[proto] += c.tag_errors;
      tag_bits[proto] += c.tag_bits;
    }

    TrialRunner frame_runner({threads, seed_ ^ 0x5eedf00dull});
    const std::vector<std::uint32_t> frame_errors = frame_runner.run_grid(
        kFramePoints, kFramesPerPoint,
        [&](std::size_t point, std::size_t, Rng& rng) { return frame(point, rng); });
    double frames_ok = 0.0;
    for (std::uint32_t e : frame_errors) {
      d.u64(e);
      frames_ok += e == 0;
    }

    PassResult out;
    out.digest = d.value();
    out.units = units_per_pass();
    out.failed_units = failed;
    out.summary = "tag_ber wifi_b/wifi_n/ble/zigbee=";
    for (std::size_t p = 0; p < 4; ++p)
      out.summary += format(p ? "/%.4f" : "%.4f", tag_err[p] / tag_bits[p]);
    out.summary += format(" frames_ok=%.0f/%.0f", frames_ok,
                          static_cast<double>(frame_errors.size()));
    return out;
  }

 private:
  OverlayCell packet(std::size_t point, Rng& rng) const {
    const std::size_t per_proto = kOverlayModes.size() * kOverlaySnrDb.size();
    const std::size_t proto = point / per_proto;
    const std::size_t mode = point / kOverlaySnrDb.size() % kOverlayModes.size();
    const double snr_db = kOverlaySnrDb[point % kOverlaySnrDb.size()];
    const OverlayReceiver& rx = receivers_[proto * kOverlayModes.size() + mode];
    const OverlayCodec& codec = rx.codec();
    OverlayCell cell;
    try {
      const Bits productive =
          rng.bits(kSequences * codec.productive_bits_per_sequence());
      const Bits tag = rng.bits(codec.tag_capacity(kSequences));
      Iq carrier;
      {
        Scope s(Layer::Carrier);
        carrier = codec.make_carrier(productive);
        s.units(static_cast<double>(carrier.size()));
      }
      Iq modulated;
      {
        Scope s(Layer::TagModulate);
        modulated = codec.tag_modulate(carrier, tag);
        s.units(static_cast<double>(modulated.size()));
      }
      const Iq packet = rx.assemble_packet(modulated);
      // Noise-only lead-in and tail, so the receiver has to find the packet.
      Iq capture(kLeadSamples + packet.size() + kTailSamples, Cf(0.0f, 0.0f));
      std::copy(packet.begin(), packet.end(), capture.begin() + kLeadSamples);
      const double noise_power =
          mean_power(std::span<const Cf>(packet)) / db_to_linear(snr_db);
      Iq noisy;
      {
        Scope s(Layer::Awgn);
        noisy = add_noise_power(capture, noise_power, rng);
        s.units(static_cast<double>(capture.size()));
      }
      const std::optional<OverlayDecoded> got =
          traced() ? traced_receive(rx, kAllProtocols[proto], noisy, kSequences)
                   : rx.receive(noisy, kSequences);
      cell.productive_bits = static_cast<std::uint32_t>(productive.size());
      cell.tag_bits = static_cast<std::uint32_t>(tag.size());
      if (got) {
        cell.synced = 1;
        cell.productive_errors = bit_errors(productive, got->productive);
        cell.tag_errors = bit_errors(tag, got->tag);
      } else {
        cell.productive_errors = cell.productive_bits;
        cell.tag_errors = cell.tag_bits;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: overlay packet failed: %s\n", e.what());
      cell.failed = 1;
    }
    return cell;
  }

  /// Payload bit errors of one full 802.11n frame at grid point
  /// (MCS, SNR).
  std::uint32_t frame(std::size_t point, Rng& rng) const {
    const WifiNPhy& phy = frame_phys_[point / kFrameSnrDb.size()];
    const double snr_db = kFrameSnrDb[point % kFrameSnrDb.size()];
    const Bytes payload = rng.bytes(kFrameBytes);
    Iq tx;
    {
      Scope s(Layer::WifiNTx);
      tx = phy.modulate_frame(payload);
      s.units(static_cast<double>(tx.size()));
    }
    Iq rx_iq;
    {
      Scope s(Layer::Awgn);
      rx_iq = add_awgn(tx, snr_db, rng);
      s.units(static_cast<double>(tx.size()));
    }
    const WifiNPhy::RxFrame got =
        traced() ? traced_demodulate_frame(phy, rx_iq, kFrameBytes)
                 : phy.demodulate_frame(rx_iq, kFrameBytes);
    if (!got.ok) return static_cast<std::uint32_t>(kFrameBytes * 8);
    std::uint32_t e = 0;
    for (std::size_t i = 0; i < kFrameBytes; ++i)
      e += static_cast<std::uint32_t>(
          __builtin_popcount(static_cast<unsigned>(payload[i] ^ got.payload[i])));
    return e;
  }

  std::uint64_t seed_;
  std::vector<OverlayReceiver> receivers_;
  std::vector<WifiNPhy> frame_phys_;
};

// ---------------------------------------------------------------------
// Link survival: standard_scenarios() x {full, blind} through
// build_workload + LinkSession::run_trace (bench_robustness_workloads'
// first two variants).

LinkSessionConfig link_variant(const WorkloadScenario& s, bool full) {
  LinkSessionConfig cfg = s.link;
  cfg.energy.governor = full;
  cfg.retry_budget.enabled = full;
  cfg.arq.holdoff_jitter_slots = full ? 3 : 0;
  return cfg;
}

void digest_report(Digest& d, const LinkSessionReport& r) {
  for (std::size_t v :
       {r.slots, r.slots_deferred, r.readings_offered, r.readings_delivered,
        r.frames_corrupted, r.frames_recovered, r.acks_lost, r.duplicates_seen,
        r.sender.frames_loaded, r.sender.transmissions, r.sender.retransmissions,
        r.sender.frames_delivered, r.sender.frames_dropped,
        r.sender.readings_abandoned, r.level_switches, r.slots_dark,
        r.slots_undersized, r.brownouts, r.slots_browned_out, r.resyncs,
        r.retries_shed, r.energy_deferrals, r.energy_violations, r.recoveries})
    d.u64(v);
  for (double v : {r.delivered_bytes, r.mean_gamma, r.mean_fec_repeats,
                   r.final_nack_rate, r.energy_harvested_j, r.energy_spent_j,
                   r.recover_slots_total})
    d.f64(v);
}

class LinkWorkload final : public Workload {
 public:
  // bench_robustness_workloads runs 5 trials per cell; 8x that makes a
  // 1-thread pass last about 1.5 s, long enough to time steadily.
  static constexpr std::size_t kTrials = 40;
  static constexpr std::size_t kVariants = 2;

  explicit LinkWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    scenarios_ = standard_scenarios();
    traces_.assign(scenarios_.size() * kTrials, {});
    // Both variants of a (scenario, trial) replay the same slot trace.
    const Rng trace_root(seed_ ^ 0x9e3779b97f4a7c15ull);
    for (std::size_t sc = 0; sc < scenarios_.size(); ++sc)
      for (std::size_t t = 0; t < kTrials; ++t) {
        Scope s(Layer::WorkloadBuild);
        Rng rng = trace_root.fork(sc, t);
        traces_[sc * kTrials + t] = build_workload(scenarios_[sc].workload, rng);
        s.units(static_cast<double>(traces_[sc * kTrials + t].size()));
      }
  }

  std::size_t units_per_pass() const override {
    return scenarios_.size() * kVariants * kTrials;
  }

  PassResult pass(std::size_t threads) override {
    struct Cell {
      LinkSessionReport report;
      bool failed = false;
    };
    TrialRunner runner({threads, seed_});
    const std::vector<Cell> cells = runner.run_grid(
        scenarios_.size() * kVariants, kTrials,
        [&](std::size_t point, std::size_t trial, Rng& rng) {
          const std::size_t sc = point / kVariants;
          const WorkloadScenario& s = scenarios_[sc];
          Cell c;
          try {
            Scope span(Layer::RunTrace);
            LinkSession session(link_variant(s, point % kVariants == 0));
            c.report = session.run_trace(s.n_readings,
                                         traces_[sc * kTrials + trial], rng);
            span.units(static_cast<double>(c.report.slots));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: link session failed: %s\n", e.what());
            c.failed = true;
          }
          return c;
        });
    Digest d;
    PassResult out;
    double delivered = 0.0, offered = 0.0, frames_delivered = 0.0, sent = 0.0;
    for (const Cell& c : cells) {
      digest_report(d, c.report);
      out.failed_units += c.failed;
      delivered += static_cast<double>(c.report.readings_delivered);
      offered += static_cast<double>(c.report.readings_offered);
      frames_delivered += static_cast<double>(c.report.sender.frames_delivered);
      sent += static_cast<double>(c.report.sender.transmissions);
    }
    out.digest = d.value();
    out.units = units_per_pass();
    out.counters = {{"arq_frames_delivered", frames_delivered},
                    {"arq_transmissions", sent}};
    out.summary = format("readings delivered %.0f/%.0f", delivered, offered);
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<WorkloadScenario> scenarios_;
  std::vector<std::vector<SlotConditions>> traces_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "ident_calibrate")
    // Fig 7b and Fig 8a/b/c: 60 calibration + 200 ordered trials each.
    return std::make_unique<IdentWorkload>(
        seed,
        std::vector<IdentCase>{{"fig7b", 10e6, 20, 60},
                               {"fig8a", 2.5e6, 5, 15},
                               {"fig8b", 2.5e6, 20, 80},
                               {"fig8c", 1e6, 2, 6}},
        /*calibrate=*/true, 200, 60);
  if (name == "ident_blind")
    return std::make_unique<IdentWorkload>(
        seed,
        std::vector<IdentCase>{{"blind_10M", 10e6, 20, 60},
                               {"blind_2.5M", 2.5e6, 20, 80}},
        /*calibrate=*/false, 2000, 0);
  if (name == "overlay_decode") return std::make_unique<OverlayWorkload>(seed);
  if (name == "link_survival") return std::make_unique<LinkWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
