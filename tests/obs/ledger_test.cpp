// Run-ledger semantics: the manifest's deterministic section is a pure
// function of (run info, recorded results, metrics aggregate) — sorted
// keys, stable number formatting — while wall time and profile data
// stay confined to the nondeterministic section.
#include <cstdlib>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/ledger.h"
#include "obs/telemetry.h"

namespace ms::obs::ledger {
namespace {

RunInfo test_info() {
  RunInfo info;
  info.program = "ledger_test";
  info.config_hash = 0xdeadbeefcafef00dull;
  info.seed = 42;
  info.trials = 7;
  info.threads = 3;
  return info;
}

TEST(Ledger, DeterministicSectionIsStableAndSorted) {
  reset();
  reset_aggregate();
  set_run_info(test_info());
  record_result("zeta.metric", 2.0);
  record_result("alpha.metric", 1.5);

  std::ostringstream a;
  write_deterministic_json(a);
  std::ostringstream b;
  write_deterministic_json(b);
  // Byte-identical across repeated renders (no wall-clock leakage).
  EXPECT_EQ(a.str(), b.str());
  // Name-sorted results regardless of recording order.
  EXPECT_LT(a.str().find("alpha.metric"), a.str().find("zeta.metric"));
  // Config hash renders as fixed-width hex.
  EXPECT_NE(a.str().find("\"config_hash\": \"deadbeefcafef00d\""),
            std::string::npos);
  // The section carries no per-cell deadline key.
  EXPECT_EQ(a.str().find("trial_deadline_ms"), std::string::npos) << a.str();
  reset();
}

TEST(Ledger, ResultOverwriteTakesLastValue) {
  reset();
  record_result("x", 1.0);
  record_result("x", 2.0);
  EXPECT_DOUBLE_EQ(results().at("x"), 2.0);
  reset();
}

TEST(Ledger, DeterministicSectionExcludesNondeterministicFields) {
  reset();
  reset_aggregate();
  set_run_info(test_info());
  std::ostringstream det;
  write_deterministic_json(det);
  // Thread counts, git SHA, and wall time must be unreachable from the
  // deterministic section — the whole point of the split.
  EXPECT_EQ(det.str().find("threads"), std::string::npos);
  EXPECT_EQ(det.str().find("git_sha"), std::string::npos);
  EXPECT_EQ(det.str().find("wall_s"), std::string::npos);
  reset();
}

TEST(Ledger, ManifestHasBothSectionsAndSchema) {
  reset();
  reset_aggregate();
  set_run_info(test_info());
  record_result("acc", 0.97);
  std::ostringstream m;
  write_manifest_json(m);
  const std::string s = m.str();
  EXPECT_NE(s.find("\"schema\": \"ms.run.v2\""), std::string::npos);
  EXPECT_NE(s.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(s.find("\"nondeterministic\""), std::string::npos);
  EXPECT_NE(s.find("\"acc\": 0.96999999999999997"), std::string::npos);
  // The wall time lands after the deterministic section closes.
  EXPECT_GT(s.find("\"wall_s\""), s.find("\"nondeterministic\""));
  // Neither a timings block nor a deadline key is written.
  EXPECT_EQ(s.find("\"timings\""), std::string::npos) << s;
  EXPECT_EQ(s.find("trial_deadline_ms"), std::string::npos) << s;
  reset();
}

TEST(Ledger, MetricsDigestTracksAggregate) {
  reset();
  reset_aggregate();
  const std::uint64_t empty_digest = metrics_digest();
  const MetricId c = counter("test.ledger.digest");
  TelemetryShard s;
  {
    ShardScope scope(&s);
    add(c, 3);
  }
  aggregate_merge(s);
  EXPECT_NE(metrics_digest(), empty_digest);
  reset_aggregate();
  reset();
}

TEST(Ledger, GitShaEnvOverrideWins) {
  ::setenv("MS_GIT_SHA", "f00dfeed1234", 1);
  EXPECT_EQ(git_sha(), "f00dfeed1234");
  ::unsetenv("MS_GIT_SHA");
  EXPECT_NE(git_sha(), "");  // compile-time value or "unknown"
}

TEST(Ledger, ConfigHashSeparatesEveryField) {
  const std::uint64_t base = config_hash("bench", 1, 2);
  EXPECT_NE(base, config_hash("other", 1, 2));
  EXPECT_NE(base, config_hash("bench", 9, 2));
  EXPECT_NE(base, config_hash("bench", 1, 9));
}

TEST(Ledger, ConfigHashMatchesCommittedBaselines) {
  // The run identity recorded in BENCH_seed.json: `msbench fig7_ordered`
  // at default flags, which msbench names bench_fig7_ordered, with seed
  // and trials 0 (the experiment's defaults).  obs_report diff refuses
  // to compare manifests whose config_hash differs, so a change here
  // breaks the baseline.
  EXPECT_EQ(config_hash("bench_fig7_ordered", 0, 0), 0x4dc2d10368c02f5full);
}

}  // namespace
}  // namespace ms::obs::ledger
