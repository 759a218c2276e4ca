#include "sim/workload/workload.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"

namespace ms {

namespace {

void check_positive(double v, const char* name) {
  if (!(v > 0.0))
    throw Error(std::string("WorkloadConfig::") + name +
                " must be > 0, got " + std::to_string(v));
}

void check_scale(float v, const char* name) {
  if (!(v > 0.0f && v <= 4.0f))
    throw Error(std::string("WorkloadConfig::") + name +
                " must be in (0, 4], got " + std::to_string(v));
}

/// Geometric-ish stretch length with the given mean (exponential draw
/// rounded up to at least one slot).
std::size_t stretch_slots(double mean, Rng& rng) {
  const double u = rng.uniform();  // [0, 1)
  const double len = -mean * std::log1p(-u);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(len)));
}

void fill_saturated(std::vector<SlotConditions>& trace) {
  for (SlotConditions& c : trace) {
    c.excitation = true;
    c.capacity_scale = 1.0f;
  }
}

void fill_ble(std::vector<SlotConditions>& trace,
              const BleAdvertisingConfig& ble, Rng& rng) {
  for (SlotConditions& c : trace) c.excitation = false;
  // First event lands inside the first interval so trials decorrelate.
  double next = rng.uniform() * ble.interval_slots;
  while (next < static_cast<double>(trace.size())) {
    const auto start = static_cast<std::size_t>(next);
    const std::size_t end =
        std::min(trace.size(), start + ble.event_len_slots);
    for (std::size_t i = start; i < end; ++i) {
      trace[i].excitation = true;
      trace[i].capacity_scale = ble.capacity_scale;
    }
    next += ble.interval_slots + rng.uniform() * ble.jitter_slots;
  }
}

void fill_wifi_mix(std::vector<SlotConditions>& trace,
                   const WifiMixConfig& wifi, Rng& rng) {
  double total_weight = 0.0;
  for (const WifiMcsClass& c : wifi.classes) total_weight += c.weight;
  std::size_t i = 0;
  while (i < trace.size()) {
    // Pick the next burst's MCS class by weight.
    double pick = rng.uniform() * total_weight;
    const WifiMcsClass* cls = &wifi.classes.back();
    for (const WifiMcsClass& c : wifi.classes) {
      if (pick < c.weight) {
        cls = &c;
        break;
      }
      pick -= c.weight;
    }
    const std::size_t burst = stretch_slots(cls->burst_mean_slots, rng);
    for (std::size_t k = 0; k < burst && i < trace.size(); ++k, ++i) {
      trace[i].excitation = true;
      trace[i].capacity_scale = cls->capacity_scale;
    }
    const std::size_t gap = stretch_slots(cls->gap_mean_slots, rng);
    for (std::size_t k = 0; k < gap && i < trace.size(); ++k, ++i)
      trace[i].excitation = false;
  }
}

void fill_duty(std::vector<SlotConditions>& trace, const DutyCycleConfig& duty,
               Rng& rng) {
  std::size_t i = 0;
  bool on = true;  // the source is up when the tag first listens
  while (i < trace.size()) {
    const std::size_t len = stretch_slots(
        on ? duty.on_mean_slots : duty.off_mean_slots, rng);
    for (std::size_t k = 0; k < len && i < trace.size(); ++k, ++i) {
      trace[i].excitation = on;
      trace[i].capacity_scale = duty.capacity_scale;
    }
    on = !on;
  }
}

}  // namespace

void WorkloadConfig::validate() const {
  if (n_slots == 0) throw Error("WorkloadConfig::n_slots must be > 0");
  check_positive(ble.interval_slots, "ble.interval_slots");
  if (ble.jitter_slots < 0.0)
    throw Error("WorkloadConfig::ble.jitter_slots must be >= 0, got " +
                std::to_string(ble.jitter_slots));
  if (ble.event_len_slots == 0)
    throw Error("WorkloadConfig::ble.event_len_slots must be > 0");
  check_scale(ble.capacity_scale, "ble.capacity_scale");
  if (pattern == ExcitationPattern::WifiMix && wifi.classes.empty())
    throw Error("WorkloadConfig::wifi.classes is empty for a WifiMix pattern");
  for (const WifiMcsClass& c : wifi.classes) {
    check_positive(c.weight, "wifi.classes[].weight");
    check_scale(c.capacity_scale, "wifi.classes[].capacity_scale");
    check_positive(c.burst_mean_slots, "wifi.classes[].burst_mean_slots");
    check_positive(c.gap_mean_slots, "wifi.classes[].gap_mean_slots");
  }
  check_positive(duty.on_mean_slots, "duty.on_mean_slots");
  check_positive(duty.off_mean_slots, "duty.off_mean_slots");
  check_scale(duty.capacity_scale, "duty.capacity_scale");
  if (!(interferer_slot_prob >= 0.0 && interferer_slot_prob <= 1.0))
    throw Error("WorkloadConfig::interferer_slot_prob must be in [0, 1], "
                "got " + std::to_string(interferer_slot_prob));
  validate_fault_windows(interferer_windows);
}

std::vector<SlotConditions> build_workload(const WorkloadConfig& cfg,
                                           Rng& rng) {
  cfg.validate();
  std::vector<SlotConditions> trace(cfg.n_slots);

  // 1. Excitation pattern.
  switch (cfg.pattern) {
    case ExcitationPattern::Saturated:
      fill_saturated(trace);
      break;
    case ExcitationPattern::BleAdvertising:
      fill_ble(trace, cfg.ble, rng);
      break;
    case ExcitationPattern::WifiMix:
      fill_wifi_mix(trace, cfg.wifi, rng);
      break;
    case ExcitationPattern::DutyCycled:
      fill_duty(trace, cfg.duty, rng);
      break;
  }

  // 2. Interferer overlay: parked windows, then the i.i.d. background.
  for (const FaultWindow& w : cfg.interferer_windows) {
    const std::size_t end =
        std::min(trace.size(), w.start_slot + w.duration_slots);
    for (std::size_t i = w.start_slot; i < end; ++i)
      trace[i].interferer = true;
  }
  if (cfg.interferer_slot_prob > 0.0)
    for (SlotConditions& c : trace)
      if (rng.chance(cfg.interferer_slot_prob)) c.interferer = true;

  // 3. Time-varying channel: the channel exists whether or not the slot
  // is excited, so every slot advances the processes.
  if (cfg.channel_enabled) {
    TimeVaryingChannel channel(cfg.channel);
    for (SlotConditions& c : trace)
      c.snr_offset_db = static_cast<float>(channel.step_offset_db(rng));
  }
  return trace;
}

float capacity_scale_for(const ExcitationSpec& spec,
                         const ExcitationSpec& nominal) {
  const double n = static_cast<double>(nominal.payload_symbols());
  MS_CHECK_MSG(n > 0.0, "nominal excitation has no payload symbols");
  const double ratio = static_cast<double>(spec.payload_symbols()) / n;
  return static_cast<float>(std::clamp(ratio, 1e-3, 1.0));
}

}  // namespace ms
