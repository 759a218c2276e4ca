// The telemetry determinism contract, end to end: an instrumented sweep
// must produce byte-identical metrics JSON and trace JSONL at any
// --threads value, and different seeds must produce different telemetry
// (the aggregate reflects the data, not just the schema).
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/ident_experiment.h"

namespace ms {
namespace {

IdentTrialConfig small_cfg(std::uint64_t seed, std::size_t threads) {
  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

struct Capture {
  std::string metrics;
  std::string trace;
};

Capture run_capture(std::uint64_t seed, std::size_t threads) {
  obs::reset_aggregate();
  run_ident_experiment(small_cfg(seed, threads), 6);
  Capture c;
  c.metrics = obs::metrics_json_string();
  std::ostringstream tr;
  obs::write_trace_jsonl(tr);
  c.trace = tr.str();
  obs::reset_aggregate();
  return c;
}

class TelemetryDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_tracing_ = obs::tracing();
    obs::set_enabled(true);
    obs::set_tracing(true);
  }
  void TearDown() override { obs::set_tracing(saved_tracing_); }
  bool saved_tracing_ = false;
};

TEST_F(TelemetryDeterminism, ByteIdenticalAcrossThreadCounts) {
  const Capture t1 = run_capture(7, 1);
  const Capture t8 = run_capture(7, 8);
  EXPECT_EQ(t1.metrics, t8.metrics);
  EXPECT_EQ(t1.trace, t8.trace);
  // Guard against vacuous equality: the sweep must actually have
  // recorded metrics and events.
  EXPECT_NE(t1.metrics.find("ident.classify"), std::string::npos);
  EXPECT_FALSE(t1.trace.empty());
}

TEST_F(TelemetryDeterminism, SameSeedSameThreadsReproduces) {
  const Capture a = run_capture(11, 3);
  const Capture b = run_capture(11, 3);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

TEST_F(TelemetryDeterminism, DifferentSeedsDiffer) {
  const Capture a = run_capture(7, 2);
  const Capture b = run_capture(8, 2);
  // The histograms (best_score, margin) depend on the drawn noise, so
  // two seeds agreeing byte-for-byte would mean telemetry is not
  // actually wired to the data.
  EXPECT_NE(a.trace, b.trace);
  EXPECT_NE(a.metrics, b.metrics);
}

}  // namespace
}  // namespace ms
