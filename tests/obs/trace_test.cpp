// Structured tracing: the on/off switch, the deterministic clock and
// event JSON rendering.
#include <string>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace ms::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_tracing_ = tracing(); }
  void TearDown() override { set_tracing(saved_tracing_); }
  bool saved_tracing_ = false;
};

TEST_F(TraceTest, EventsCarryTheDeterministicClock) {
  TelemetryShard s;
  set_tracing(true);
  {
    ShardScope scope(&s);
    set_trace_cell(3, 7);
    set_sim_time(42.5);
    Event(Subsystem::Faults, Severity::Warn, "test.clock")
        .f("len", std::size_t{16})
        .emit();
  }
  ASSERT_EQ(s.events().size(), 1u);
  const TraceEvent& ev = s.events()[0];
  EXPECT_EQ(ev.point, 3u);
  EXPECT_EQ(ev.trial, 7u);
  EXPECT_DOUBLE_EQ(ev.sim_time, 42.5);
  EXPECT_EQ(ev.severity, Severity::Warn);
}

TEST_F(TraceTest, EventJsonRendering) {
  TelemetryShard s;
  set_tracing(true);
  {
    ShardScope scope(&s);
    set_trace_cell(1, 2);
    set_sim_time(5.0);
    Event(Subsystem::Arq, Severity::Info, "arq.retry")
        .f("attempt", 3)
        .fs("mode", "ordered")
        .emit();
  }
  ASSERT_EQ(s.events().size(), 1u);
  const std::string json = event_to_json(s.events()[0]);
  EXPECT_NE(json.find("\"point\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trial\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"subsys\": \"arq\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sev\": \"info\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"event\": \"arq.retry\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"attempt\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode\": \"ordered\""), std::string::npos) << json;
}

TEST_F(TraceTest, DisabledMaskIsAllNoOps) {
  TelemetryShard s;
  set_tracing(false);
  {
    ShardScope scope(&s);
    for (Subsystem sub : {Subsystem::Ident, Subsystem::Overlay,
                          Subsystem::Arq, Subsystem::Faults})
      Event(sub, Severity::Error, "test.silent").f("x", 1.0).emit();
  }
  EXPECT_TRUE(s.events().empty());
}

TEST_F(TraceTest, SubsystemAndSeverityNames) {
  EXPECT_STREQ(subsystem_name(Subsystem::Ident), "ident");
  EXPECT_STREQ(subsystem_name(Subsystem::Overlay), "overlay");
  EXPECT_STREQ(subsystem_name(Subsystem::Arq), "arq");
  EXPECT_STREQ(subsystem_name(Subsystem::Faults), "faults");
  EXPECT_STREQ(severity_name(Severity::Debug), "debug");
  EXPECT_STREQ(severity_name(Severity::Error), "error");
}

}  // namespace
}  // namespace ms::obs
