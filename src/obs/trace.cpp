#include "obs/trace.h"

#include <atomic>
#include <cstdio>

#include "obs/telemetry.h"

namespace ms::obs {

namespace {

std::atomic<bool> g_tracing{false};

std::string fmt_num(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 1e15 && v > -1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::Ident: return "ident";
    case Subsystem::Overlay: return "overlay";
    case Subsystem::Arq: return "arq";
    case Subsystem::Faults: return "faults";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "?";
}

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

Event::Event(Subsystem subsys, Severity severity, const char* name) {
  enabled_ = tracing() && detail::current_shard() != nullptr;
  if (!enabled_) return;
  ev_.subsys = subsys;
  ev_.severity = severity;
  ev_.name = name;
}

Event& Event::f(const char* key, double value) {
  if (enabled_ && ev_.n_fields < TraceEvent::kMaxFields) {
    ev_.fields[ev_.n_fields].key = key;
    ev_.fields[ev_.n_fields].num = value;
    ev_.fields[ev_.n_fields].str = nullptr;
    ++ev_.n_fields;
  }
  return *this;
}

Event& Event::fs(const char* key, const char* value) {
  if (enabled_ && ev_.n_fields < TraceEvent::kMaxFields) {
    ev_.fields[ev_.n_fields].key = key;
    ev_.fields[ev_.n_fields].str = value;
    ++ev_.n_fields;
  }
  return *this;
}

void Event::emit() {
  if (!enabled_) return;
  const TraceClock clock = trace_clock();
  ev_.point = clock.point;
  ev_.trial = clock.trial;
  ev_.sim_time = clock.sim_time;
  detail::current_shard()->record_event(ev_);
}

std::string event_to_json(const TraceEvent& ev) {
  std::string out = "{\"point\": " + std::to_string(ev.point) +
                    ", \"trial\": " + std::to_string(ev.trial) +
                    ", \"t\": " + fmt_num(ev.sim_time) + ", \"subsys\": \"" +
                    subsystem_name(ev.subsys) + "\", \"sev\": \"" +
                    severity_name(ev.severity) + "\", \"event\": \"" +
                    (ev.name ? ev.name : "?") + "\"";
  for (std::uint8_t i = 0; i < ev.n_fields; ++i) {
    const TraceEvent::Field& f = ev.fields[i];
    out += ", \"";
    out += f.key;
    out += "\": ";
    if (f.str) {
      out += "\"";
      out += f.str;
      out += "\"";
    } else {
      out += fmt_num(f.num);
    }
  }
  out += "}";
  return out;
}

}  // namespace ms::obs
