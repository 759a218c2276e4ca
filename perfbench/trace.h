// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer; the library itself is untouched.  Spans stay in memory
// and are written out once, after the last pass, so the file I/O never
// lands inside a timed interval.  Self time (a span minus the part of it
// its children cover) is computed from the file by perfbench/benchlib.py.
//
// Not thread-safe: traced passes always run the trial engine on one
// worker, so at most one thread records at a time (the thread that
// starts a grid blocks until the grid is done).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the harness records.  A `:` separates a layer from a
/// qualifier (the protocol a decode served); benchlib.py turns
/// "core.overlay.decode:ble" into metrics such as
/// "core.overlay.decode_s.ble".
enum class Layer : std::uint8_t {
  Setup,
  Pass,
  IdentTemplates,
  OverlayInit,
  WorkloadBuild,
  CacheLookup,
  PhySynth,
  Multipath,
  Noise,
  Awgn,
  Frontend,
  DesignLowpass,
  FirFilter,
  Discriminate,
  Rectifier,
  Adc,
  Scores,
  Decide,
  CalibrationCollect,
  CalibrationRun,
  Carrier,
  TagModulate,
  Sync,
  DecodeWifiB,
  DecodeWifiN,
  DecodeBle,
  DecodeZigbee,
  WifiNTx,
  WifiNRx,
  Viterbi,
  RunTrace,
  kCount,
};

inline constexpr const char* kLayerNames[] = {
    "setup",
    "pass",
    "core.ident.templates",
    "core.overlay.receiver_init",
    "sim.workload.build",
    "sim.runner.cache_lookup",
    "phy.synth",
    "channel.multipath",
    "channel.noise",
    "channel.awgn",
    "core.ident.frontend",
    "dsp.design_lowpass",
    "dsp.fir_filter",
    "dsp.discriminate",
    "analog.rectifier",
    "analog.adc",
    "core.ident.scores",
    "core.ident.decide",
    "sim.calibration.collect",
    "sim.calibration.run",
    "core.overlay.carrier",
    "core.overlay.tag_modulate",
    "core.overlay.sync",
    "core.overlay.decode:wifi_b",
    "core.overlay.decode:wifi_n",
    "core.overlay.decode:ble",
    "core.overlay.decode:zigbee",
    "phy.wifi_n_tx",
    "phy.wifi_n_rx",
    "phy.viterbi",
    "core.tag.run_trace",
};
static_assert(std::size(kLayerNames) == static_cast<std::size_t>(Layer::kCount));

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list; -1 = root
  std::int32_t pass = -1;    ///< pass id; -1 = set-up
  Layer layer = Layer::Pass;
  double units = 0.0;        ///< work units (samples, slots) the call handled
};

class Tracer {
 public:
  Tracer() : t0_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 16); }

  void set_pass(std::int32_t pass) { pass_ = pass; }

  std::int32_t open(Layer layer) {
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.pass = pass_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id, double units) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.units = units;
    stack_.pop_back();
  }

  /// One header line naming the layers, then one tab-separated line per
  /// span: index, layer, start_ns, end_ns, parent, pass, units.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t pass_ = -1;
};

/// The tracer of the running traced pass, or null when untraced.
Tracer* active_tracer();
void set_active_tracer(Tracer* tracer);

/// RAII span; a no-op when no tracer is active.
class Scope {
 public:
  explicit Scope(Layer layer) : tracer_(active_tracer()) {
    if (tracer_) id_ = tracer_->open(layer);
  }
  ~Scope() {
    if (tracer_) tracer_->close(id_, units_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void units(double u) { units_ = u; }

 private:
  Tracer* tracer_;
  std::int32_t id_ = -1;
  double units_ = 0.0;
};

}  // namespace perfbench
