// Metrics registry + shard semantics: registration is idempotent by
// name, kind/bounds conflicts throw, and shard merges follow the
// documented rules (counters add, histograms add) that the determinism
// contract rests on.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace ms::obs {
namespace {

TEST(MetricsRegistry, RegistrationDedupesByName) {
  const MetricId a = counter("test.metrics.dedupe");
  const MetricId b = counter("test.metrics.dedupe");
  EXPECT_EQ(a, b);
  const MetricDef def = metric_def(a);
  EXPECT_EQ(def.name, "test.metrics.dedupe");
  EXPECT_EQ(def.kind, MetricKind::Counter);
}

TEST(MetricsRegistry, KindConflictThrows) {
  counter("test.metrics.kind_conflict");
  EXPECT_THROW(histogram("test.metrics.kind_conflict",
                         std::vector<double>{1.0}),
               Error);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  const std::vector<double> b1 = {1.0, 2.0};
  const std::vector<double> b2 = {1.0, 3.0};
  const MetricId h = histogram("test.metrics.bounds_fixed", b1);
  EXPECT_EQ(histogram("test.metrics.bounds_fixed", b1), h);
  EXPECT_THROW(histogram("test.metrics.bounds_fixed", b2), Error);
}

TEST(MetricsRegistry, HistogramBoundsMustAscendAndBeNonEmpty) {
  EXPECT_THROW(histogram("test.metrics.bounds_desc",
                         std::vector<double>{2.0, 1.0}),
               Error);
  EXPECT_THROW(histogram("test.metrics.bounds_empty", std::vector<double>{}),
               Error);
}

TEST(MetricsRegistry, ConflictErrorsNameTheOffendingMetric) {
  counter("test.metrics.named_conflict");
  try {
    histogram("test.metrics.named_conflict", std::vector<double>{1.0});
    FAIL() << "kind conflict did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("test.metrics.named_conflict"),
              std::string::npos)
        << "kind-conflict message must name the metric: " << e.what();
  }
  const std::vector<double> b1 = {1.0, 2.0};
  histogram("test.metrics.named_bounds_conflict", b1);
  try {
    histogram("test.metrics.named_bounds_conflict",
              std::vector<double>{1.0, 5.0});
    FAIL() << "bounds conflict did not throw";
  } catch (const Error& e) {
    EXPECT_NE(
        std::string(e.what()).find("test.metrics.named_bounds_conflict"),
        std::string::npos)
        << "bounds-conflict message must name the metric: " << e.what();
  }
}

TEST(Shard, HistogramUpperBoundsAreInclusive) {
  // The bucketing rule is value <= bound: a value exactly equal to a
  // bucket's upper bound lands in THAT bucket, never the next one.
  const MetricId h = histogram("test.shard.boundary",
                               std::vector<double>{1.0, 2.0, 4.0});
  TelemetryShard s;
  {
    ShardScope scope(&s);
    observe(h, 1.0);  // == bounds[0] -> bucket 0
    observe(h, 2.0);  // == bounds[1] -> bucket 1
    observe(h, 4.0);  // == bounds[2] (last finite bound) -> bucket 2
  }
  const auto hv = s.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 4u);
  EXPECT_EQ(hv.counts[0], 1u);
  EXPECT_EQ(hv.counts[1], 1u);
  EXPECT_EQ(hv.counts[2], 1u);
  EXPECT_EQ(hv.counts[3], 0u);
}

TEST(Shard, HistogramOverflowBucketCatchesAboveLastBound) {
  const MetricId h = histogram("test.shard.overflow",
                               std::vector<double>{1.0, 2.0});
  TelemetryShard s;
  {
    ShardScope scope(&s);
    observe(h, 2.0000001);  // just past the last finite bound
    observe(h, 1e12);
  }
  const auto hv = s.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 3u);
  EXPECT_EQ(hv.counts[0], 0u);
  EXPECT_EQ(hv.counts[1], 0u);
  EXPECT_EQ(hv.counts[2], 2u);  // implicit +inf bucket
  EXPECT_EQ(hv.n, 2u);
}

TEST(Shard, RecordsThroughInstalledScope) {
  const MetricId c = counter("test.shard.counter");
  const MetricId h =
      histogram("test.shard.hist", std::vector<double>{1.0, 2.0});
  TelemetryShard s;
  {
    ShardScope scope(&s);
    add(c, 3);
    add(c);
    observe(h, 0.5);   // bucket 0 (<= 1)
    observe(h, 2.0);   // bucket 1 (<= 2, inclusive upper bound)
    observe(h, 99.0);  // overflow bucket
  }
  EXPECT_EQ(s.counter_value(c), 4u);
  const auto hv = s.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 3u);
  EXPECT_EQ(hv.counts[0], 1u);
  EXPECT_EQ(hv.counts[1], 1u);
  EXPECT_EQ(hv.counts[2], 1u);
  EXPECT_EQ(hv.n, 3u);
  EXPECT_DOUBLE_EQ(hv.sum, 101.5);
}

TEST(Shard, WritesAreNoOpsWithoutScope) {
  const MetricId c = counter("test.shard.unscoped");
  add(c, 5);  // no shard installed on this thread: must not crash
  TelemetryShard s;
  EXPECT_EQ(s.counter_value(c), 0u);
}

TEST(Shard, MergeSemantics) {
  const MetricId c = counter("test.merge.counter");
  const MetricId h =
      histogram("test.merge.hist", std::vector<double>{10.0});

  TelemetryShard a, b, merged;
  {
    ShardScope scope(&a);
    add(c, 2);
    observe(h, 5.0);
  }
  {
    ShardScope scope(&b);
    add(c, 3);
    observe(h, 50.0);
  }
  merged.merge_from(a);
  merged.merge_from(b);

  EXPECT_EQ(merged.counter_value(c), 5u);
  const auto hv = merged.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 2u);
  EXPECT_EQ(hv.counts[0], 1u);
  EXPECT_EQ(hv.counts[1], 1u);
  EXPECT_DOUBLE_EQ(hv.sum, 55.0);
}

TEST(Shard, DisabledTelemetryInstallsNothing) {
  const MetricId c = counter("test.shard.disabled");
  TelemetryShard s;
  set_enabled(false);
  {
    ShardScope scope(&s);
    add(c, 9);
  }
  set_enabled(true);
  EXPECT_EQ(s.counter_value(c), 0u);
}

TEST(Shard, HistogramBoundsFollowEachMetricAcrossThreads) {
  // observe() keeps a per-thread copy of each histogram's bounds.  This
  // thread caches A's, then B joins the registry, then B is observed
  // from this thread and from a fresh one, each into its own shard.
  const MetricId a =
      histogram("test.bounds_cache.a", std::vector<double>{1.0, 2.0});
  TelemetryShard mine;
  {
    ShardScope scope(&mine);
    for (double v : {0.5, 1.5, 3.0, 2.0}) observe(a, v);
  }
  const TelemetryShard::HistogramValue a_before = mine.histogram_value(a);

  const MetricId b = histogram("test.bounds_cache.b",
                               std::vector<double>{-10.0, 0.0, 10.0, 20.0});
  ASSERT_GT(b, a);
  const std::vector<double> mine_b = {-20.0, -10.0, 0.0, 5.0};
  const std::vector<double> theirs_b = {10.0, 15.0, 20.0, 25.0, 1e9};
  {
    ShardScope scope(&mine);
    for (double v : mine_b) observe(b, v);
  }
  TelemetryShard theirs;
  std::thread([&] {
    ShardScope scope(&theirs);
    for (double v : theirs_b) observe(b, v);
  }).join();

  const TelemetryShard::HistogramValue a_after = mine.histogram_value(a);
  EXPECT_EQ(a_after.counts, a_before.counts);
  EXPECT_EQ(a_after.counts, (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_EQ(mine.histogram_value(b).counts,
            (std::vector<std::uint64_t>{2, 1, 1, 0, 0}));
  EXPECT_EQ(theirs.histogram_value(b).counts,
            (std::vector<std::uint64_t>{0, 0, 1, 2, 2}));

  TelemetryShard merged, tally;
  merged.merge_from(mine);
  merged.merge_from(theirs);
  {
    ShardScope scope(&tally);
    for (double v : {0.5, 1.5, 3.0, 2.0}) observe(a, v);
    for (double v : mine_b) observe(b, v);
    for (double v : theirs_b) observe(b, v);
  }
  for (const MetricId id : {a, b}) {
    const TelemetryShard::HistogramValue m = merged.histogram_value(id);
    const TelemetryShard::HistogramValue t = tally.histogram_value(id);
    EXPECT_EQ(m.counts, t.counts) << "metric " << id;
    EXPECT_EQ(m.n, t.n) << "metric " << id;
    EXPECT_EQ(m.sum, t.sum) << "metric " << id;
  }
}

TEST(MetricsJson, SortedSchemaAndRoundTrip) {
  reset_aggregate();
  const MetricId c = counter("test.json.zeta");
  const MetricId c2 = counter("test.json.alpha");
  TelemetryShard s;
  {
    ShardScope scope(&s);
    add(c, 1);
    add(c2, 2);
  }
  aggregate_merge(s);
  const std::string json = metrics_json_string();
  EXPECT_NE(json.find("\"schema\": \"ms.metrics.v1\""), std::string::npos);
  // No metric is a gauge, but ms.metrics.v1 keeps the object.
  EXPECT_NE(json.find("\"gauges\": {},"), std::string::npos);
  // Name-sorted output: alpha before zeta regardless of registration
  // or write order.
  EXPECT_LT(json.find("test.json.alpha"), json.find("test.json.zeta"));
  reset_aggregate();
}

}  // namespace
}  // namespace ms::obs
