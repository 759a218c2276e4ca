// Hot-path microbenchmarks (google-benchmark): the operations a tag or
// receiver runs per packet — correlation, despreading, FFT, GFSK
// discrimination, the identification front end, rectifier simulation,
// overlay packet sync and full overlay decode, and the tag link layer's
// frame coding — plus the ordered-matching calibration search every
// identification figure runs once.
// After the benchmark suite, main() asserts that the telemetry layer
// (src/obs/) costs < 3% on an instrumented hot path while tracing is
// disabled — the contract that lets the instrumentation stay compiled
// in everywhere.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "analog/rectifier.h"
#include "channel/awgn.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ident/frontend.h"
#include "core/ident/identifier.h"
#include "core/overlay/ble_overlay.h"
#include "core/overlay/fec.h"
#include "core/overlay/frame.h"
#include "core/overlay/receiver.h"
#include "core/tag/adaptation.h"
#include "dsp/bitpack.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/mixer.h"
#include "dsp/ops.h"
#include "phy/dsss/wifi_b.h"
#include "phy/zigbee/zigbee.h"
#include "sim/ident_experiment.h"

namespace ms {
namespace {

void BM_SlidingPearson(benchmark::State& state) {
  Rng rng(1);
  Samples trace(static_cast<std::size_t>(state.range(0)));
  for (auto& v : trace) v = static_cast<float>(rng.normal());
  Samples tmpl(120);
  for (auto& v : tmpl) v = static_cast<float>(rng.normal());
  for (auto _ : state)
    benchmark::DoNotOptimize(sliding_correlation(trace, tmpl));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlidingPearson)->Arg(256)->Arg(1024);

void BM_OneBitCorrelation(benchmark::State& state) {
  Rng rng(2);
  std::vector<int8_t> a(120), b(120);
  for (auto& v : a) v = rng.chance(0.5) ? 1 : -1;
  for (auto& v : b) v = rng.chance(0.5) ? 1 : -1;
  for (auto _ : state) benchmark::DoNotOptimize(sign_correlation(a, b));
}
BENCHMARK(BM_OneBitCorrelation);

void BM_Fft64(benchmark::State& state) {
  Rng rng(3);
  Iq x(64);
  for (auto& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  for (auto _ : state) {
    Iq y = x;
    fft_inplace(y);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft64);

void BM_WifiBModulateFrame(benchmark::State& state) {
  Rng rng(4);
  const WifiBPhy phy;
  const Bytes payload = rng.bytes(64);
  for (auto _ : state) benchmark::DoNotOptimize(phy.modulate_frame(payload));
}
BENCHMARK(BM_WifiBModulateFrame);

void BM_ZigbeeDetectSymbols(benchmark::State& state) {
  Rng rng(5);
  const ZigbeePhy phy;
  std::vector<uint8_t> symbols(32);
  for (auto& s : symbols) s = static_cast<uint8_t>(rng.uniform_int(16));
  const Iq wave = phy.modulate_symbols(symbols);
  for (auto _ : state)
    benchmark::DoNotOptimize(phy.detect_symbols(wave, symbols.size()));
  state.SetItemsProcessed(state.iterations() * symbols.size());
}
BENCHMARK(BM_ZigbeeDetectSymbols);

void BM_Discriminator(benchmark::State& state) {
  Rng rng(6);
  Iq x(8000);
  double phase = 0.0;
  for (auto& v : x) {
    phase += rng.normal(0.0, 0.3);
    v = Cf(static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(discriminate(x, 8e6));
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_Discriminator);

/// The identification front end's matching-network filter: 31 taps over
/// 1600 samples, about one 8 Msps identification trace.
void BM_FirFilterComplex(benchmark::State& state) {
  Rng rng(12);
  Iq x(1600);
  for (auto& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  const std::vector<float> taps = design_lowpass(0.49, 31);
  for (auto _ : state) benchmark::DoNotOptimize(fir_filter(x, taps));
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_FirFilterComplex);

/// rf_envelope on BM_Discriminator's random-phase walk, at the BLE/ZigBee
/// rate (8 Msps) and the 802.11n rate (20 Msps).  The higher the rate, the
/// smaller the step that saturates the FM-to-AM clamp, and the more steps
/// skip std::arg (19 % at 8 Msps, 43 % at 20 Msps).
void BM_RfEnvelope(benchmark::State& state) {
  Rng rng(6);
  Iq x(8000);
  double phase = 0.0;
  for (auto& v : x) {
    phase += rng.normal(0.0, 0.3);
    v = Cf(static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase)));
  }
  const double rate = static_cast<double>(state.range(0)) * 1e6;
  for (auto _ : state) benchmark::DoNotOptimize(rf_envelope(x, rate));
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_RfEnvelope)->Arg(8)->Arg(20);

/// OverlayReceiver::synchronize on perfbench overlay_decode's capture: a
/// 40-sequence Mode 1 packet with 500 noise samples before it and 300
/// after, at 6 dB.  Arg: protocol index (802.11b, 802.11n, BLE, ZigBee).
void BM_OverlaySync(benchmark::State& state) {
  const Protocol p = kAllProtocols[static_cast<std::size_t>(state.range(0))];
  const OverlayReceiver rx(p, mode_params(p, OverlayMode::Mode1));
  const OverlayCodec& codec = rx.codec();
  Rng rng(13);
  const Bits productive = rng.bits(40 * codec.productive_bits_per_sequence());
  const Bits tag = rng.bits(codec.tag_capacity(40));
  const Iq packet =
      rx.assemble_packet(codec.tag_modulate(codec.make_carrier(productive), tag));
  Iq capture(500 + packet.size() + 300, Cf(0.0f, 0.0f));
  std::copy(packet.begin(), packet.end(), capture.begin() + 500);
  const Iq noisy = add_noise_power(
      capture, mean_power(std::span<const Cf>(packet)) / db_to_linear(6.0), rng);
  for (auto _ : state) benchmark::DoNotOptimize(rx.synchronize(noisy));
  state.SetItemsProcessed(state.iterations() * noisy.size());
  state.SetLabel(std::string(protocol_name(p)));
}
BENCHMARK(BM_OverlaySync)->DenseRange(0, 3);

void BM_RectifierRun(benchmark::State& state) {
  Rng rng(7);
  const Rectifier rect(multiscatter_rectifier());
  Samples env(20000);
  for (auto& v : env) v = static_cast<float>(std::abs(rng.normal(0.3, 0.1)));
  for (auto _ : state) benchmark::DoNotOptimize(rect.run(env, 20e6));
  state.SetItemsProcessed(state.iterations() * env.size());
}
BENCHMARK(BM_RectifierRun);

void BM_BleOverlayDecode(benchmark::State& state) {
  Rng rng(8);
  const BleOverlay codec(OverlayParams{8, 4});
  const std::size_t n_seq = 32;
  const Bits prod = rng.bits(n_seq);
  const Bits tag = rng.bits(codec.tag_capacity(n_seq));
  const Iq wave = codec.tag_modulate(codec.make_carrier(prod), tag);
  for (auto _ : state) benchmark::DoNotOptimize(codec.decode(wave, n_seq));
  state.SetItemsProcessed(state.iterations() * n_seq);
}
BENCHMARK(BM_BleOverlayDecode);

/// One tag frame through the link layer's coding and back, as
/// LinkSession sends it: a 31-byte frame through to_bits, TagFec::encode
/// (Hamming(7,4) + 7-row interleaver), repeat_bits, then majority_vote,
/// TagFec::decode and from_bits.  Arg: index into the default adaptation
/// ladder, {γ2,r1}, {γ4,r1}, {γ4,r3}; only the repeat count changes the
/// coding work.  Items are coded bits.
void BM_TagFrameCodec(benchmark::State& state) {
  const ProtectionLevel level =
      AdaptationConfig{}.ladder.at(static_cast<std::size_t>(state.range(0)));
  Rng rng(14);
  TagFrame frame;
  frame.tag_id = 3;
  frame.sequence = 5;
  frame.payload = rng.bytes(TagFrame::kMaxPayload);
  const TagFec fec{7};
  std::size_t coded_bits = 0;
  for (auto _ : state) {
    const Bits coded =
        repeat_bits(fec.encode(frame.to_bits()), level.fec_repeats);
    const Bits voted = majority_vote(coded, level.fec_repeats);
    benchmark::DoNotOptimize(
        TagFrame::from_bits(fec.decode(voted, voted.size() / 7 * 4)));
    coded_bits = coded.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(coded_bits));
  state.SetLabel("gamma=" + std::to_string(level.gamma) +
                 " repeats=" + std::to_string(level.fec_repeats));
}
BENCHMARK(BM_TagFrameCodec)->DenseRange(0, 2);

void BM_PackedCorrelation(benchmark::State& state) {
  Rng rng(10);
  std::vector<int8_t> stream(static_cast<std::size_t>(state.range(0)));
  std::vector<int8_t> tmpl_signs(120);
  for (auto& v : stream) v = rng.chance(0.5) ? 1 : -1;
  for (auto& v : tmpl_signs) v = rng.chance(0.5) ? 1 : -1;
  const bitpack::PackedVec tmpl = bitpack::pack_signs(tmpl_signs);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bitpack::sliding_sign_correlation(bitpack::pack_signs(stream), tmpl));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackedCorrelation)->Arg(256)->Arg(1024);

void BM_IdentifierScore(benchmark::State& state) {
  IdentifierConfig cfg;
  cfg.templates.adc_rate_hz = 10e6;
  cfg.templates.preprocess_len = 20;
  cfg.templates.match_len = 60;
  cfg.compute = ComputeMode::OneBit;
  const ProtocolIdentifier ident(cfg);
  Rng rng(9);
  Samples trace(420);
  for (auto& v : trace) v = static_cast<float>(std::abs(rng.normal(0.3, 0.1)));
  for (auto _ : state) benchmark::DoNotOptimize(ident.scores(trace));
}
BENCHMARK(BM_IdentifierScore);

/// The §2.3.2 ordered-matching calibration search: all 24 matching
/// orders over one fixed 240-trial score set (60 per protocol, as the
/// figure benches calibrate).
void BM_CalibrationSearch(benchmark::State& state) {
  Rng rng(11);
  std::vector<detail::CalTrial> trials;
  for (std::size_t truth = 0; truth < 4; ++truth)
    for (int t = 0; t < 60; ++t) {
      detail::CalTrial tr{truth, {}};
      for (std::size_t p = 0; p < 4; ++p)
        tr.scores[p] =
            p == truth ? rng.uniform(0.3, 1.0) : rng.uniform(0.0, 0.75);
      trials.push_back(tr);
    }
  std::vector<std::array<Protocol, 4>> orders;
  std::array<std::size_t, 4> perm = {0, 1, 2, 3};
  do {
    orders.push_back({kAllProtocols[perm[0]], kAllProtocols[perm[1]],
                      kAllProtocols[perm[2]], kAllProtocols[perm[3]]});
  } while (std::next_permutation(perm.begin(), perm.end()));
  for (auto _ : state)
    for (const auto& order : orders)
      benchmark::DoNotOptimize(detail::search_thresholds(trials, order));
  state.SetItemsProcessed(state.iterations() * orders.size());
}
BENCHMARK(BM_CalibrationSearch)->Unit(benchmark::kMillisecond);

/// Telemetry overhead check: time an instrumented hot path
/// (ProtocolIdentifier::scores carries an OBS_SCOPE and an event site)
/// with telemetry live-but-untraced vs the obs::set_enabled(false) kill
/// switch.  The on/off reps are interleaved — measuring one side in a
/// block and then the other lets CPU frequency drift between the blocks
/// masquerade as several percent of overhead — and the best-of-N
/// minimum on each side rejects scheduler noise.
bool check_telemetry_overhead() {
  IdentifierConfig cfg;
  cfg.templates.adc_rate_hz = 10e6;
  cfg.templates.preprocess_len = 20;
  cfg.templates.match_len = 60;
  cfg.compute = ComputeMode::OneBit;
  const ProtocolIdentifier ident(cfg);
  Rng rng(9);
  Samples trace(420);
  for (auto& v : trace) v = static_cast<float>(std::abs(rng.normal(0.3, 0.1)));

  constexpr int kIters = 256;
  constexpr int kReps = 15;
  const auto time_once = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i)
      benchmark::DoNotOptimize(ident.scores(trace));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // "Tracing disabled": telemetry live, no subsystem traced, no shard
  // installed — the state every production sweep starts in.
  const std::uint32_t saved_mask = obs::trace_mask();
  obs::set_trace_mask(0);
  obs::set_enabled(true);
  time_once();  // warm-up
  double t_on = std::numeric_limits<double>::infinity();
  double t_off = t_on;
  for (int r = 0; r < kReps; ++r) {
    obs::set_enabled(true);
    t_on = std::min(t_on, time_once());
    obs::set_enabled(false);
    t_off = std::min(t_off, time_once());
  }
  obs::set_enabled(true);
  obs::set_trace_mask(saved_mask);

  const double overhead =
      t_on > t_off ? (t_on - t_off) / t_off : 0.0;
  std::printf("\ntelemetry overhead (tracing disabled): %.2f%%"
              " (on %.3f ms vs off %.3f ms, best of %d)\n",
              100.0 * overhead, 1e3 * t_on, 1e3 * t_off, kReps);
  if (overhead >= 0.03) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds the 3%% budget\n",
                 100.0 * overhead);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace ms

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ms::check_telemetry_overhead() ? 0 : 1;
}
