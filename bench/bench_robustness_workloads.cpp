// Robustness: adversarial workload survival scorecard.
//
// Replays the standard workload scenarios (sim/workload/scenarios.h) —
// BLE advertising starvation, Wi-Fi MCS churn, parked coexistence
// interferers, deep-fade mobility walks, duty-cycled energy starvation —
// against three tag variants:
//   full   stop-and-wait ARQ + adaptation + the whole degradation stack
//          (energy governor, retry budget, holdoff jitter);
//   blind  same link layer with the rationing turned off: the capacitor
//          is modelled but spent blindly, retries are unbounded;
//   seed   the original send-once path (no ARQ, no adaptation).
// Every (scenario × variant × trial) cell is an independent task on the
// parallel trial engine; all variants of a (scenario, trial) replay the
// *same* workload trace, so the scorecard isolates the link layer.
// Output is byte-identical at any --threads value.
//
// The bench is also a regression gate: the full stack's delivery ratio
// must stay at or above each scenario's pinned floor, the degradation
// machinery must actually engage (nonzero shed/deferral counters), and
// the energy-blind variant must demonstrate the brownout → resync →
// recover path the stack exists to avoid.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tag/link_session.h"
#include "experiments.h"
#include "sim/runner/trial_runner.h"
#include "sim/workload/scenarios.h"
#include "sim/workload/workload.h"

using namespace ms;

namespace {

constexpr std::uint64_t kSeed = 2020;
constexpr std::size_t kVariants = 3;
const char* const kVariantNames[kVariants] = {"full", "blind", "seed"};

LinkSessionConfig variant_cfg(const WorkloadScenario& s, std::size_t v) {
  LinkSessionConfig cfg = s.link;
  if (v == 0) {  // full degradation stack
    cfg.energy.governor = true;
    cfg.retry_budget.enabled = true;
    cfg.arq.holdoff_jitter_slots = 3;
  } else if (v == 1) {  // energy-blind: modelled but unrationed
    cfg.energy.governor = false;
    cfg.retry_budget.enabled = false;
    cfg.arq.holdoff_jitter_slots = 0;
  } else {  // seed path: send once, no ACK, no rationing
    cfg.arq_enabled = false;
    cfg.adaptation_enabled = false;
    cfg.energy.governor = false;
    cfg.retry_budget.enabled = false;
  }
  return cfg;
}

/// Per-(scenario × variant) aggregate over trials, accumulated in fixed
/// row-major order.
struct Cell {
  double offered = 0.0, delivered = 0.0, bytes = 0.0, slots = 0.0;
  double dark = 0.0, undersized = 0.0, deferred = 0.0;
  double brownouts = 0.0, browned_slots = 0.0, resyncs = 0.0;
  double shed = 0.0, deferrals = 0.0, violations = 0.0;
  double recoveries = 0.0, recover_slots = 0.0;
  double harvested_j = 0.0, spent_j = 0.0;

  void add(const LinkSessionReport& r) {
    offered += static_cast<double>(r.readings_offered);
    delivered += static_cast<double>(r.readings_delivered);
    bytes += r.delivered_bytes;
    slots += static_cast<double>(r.slots);
    dark += static_cast<double>(r.slots_dark);
    undersized += static_cast<double>(r.slots_undersized);
    deferred += static_cast<double>(r.slots_deferred);
    brownouts += static_cast<double>(r.brownouts);
    browned_slots += static_cast<double>(r.slots_browned_out);
    resyncs += static_cast<double>(r.resyncs);
    shed += static_cast<double>(r.retries_shed);
    deferrals += static_cast<double>(r.energy_deferrals);
    violations += static_cast<double>(r.energy_violations);
    recoveries += static_cast<double>(r.recoveries);
    recover_slots += r.recover_slots_total;
    harvested_j += r.energy_harvested_j;
    spent_j += r.energy_spent_j;
  }
  double delivery() const { return offered == 0.0 ? 0.0 : delivered / offered; }
  double goodput() const { return slots == 0.0 ? 0.0 : bytes * 8.0 / slots; }
  double mean_ttr() const {
    return recoveries == 0.0 ? 0.0 : recover_slots / recoveries;
  }
};

}  // namespace

int ms::bench::robustness_workloads(const CliOptions& opt) {
  const std::uint64_t seed = opt.seed ? opt.seed : kSeed;
  const std::size_t trials = opt.trials;
  bench::title("Robustness: adversarial workloads",
               "survival scorecard under trace-driven excitation, "
               "time-varying channels, and energy budgets");

  const std::vector<WorkloadScenario> scenarios = standard_scenarios();
  const std::size_t points = scenarios.size() * kVariants;

  TrialRunner runner({opt.threads, seed});
  const auto reports = runner.run_grid(
      points, trials,
      [&](std::size_t point, std::size_t trial, Rng& rng) {
        const std::size_t sc = point / kVariants;
        const std::size_t variant = point % kVariants;
        const WorkloadScenario& s = scenarios[sc];
        // All variants of a (scenario, trial) replay the same trace:
        // the trace stream is forked from the scenario index only.
        Rng trace_rng = Rng(seed ^ 0x9e3779b97f4a7c15ull).fork(sc, trial);
        const std::vector<SlotConditions> trace =
            build_workload(s.workload, trace_rng);
        LinkSession session(variant_cfg(s, variant));
        return session.run_trace(s.n_readings, trace, rng);
      });

  std::vector<Cell> cells(points);
  for (std::size_t p = 0; p < points; ++p)
    for (std::size_t t = 0; t < trials; ++t)
      cells[p].add(reports[p * trials + t]);

  bool ok = true;
  double full_engaged = 0.0;  // shed + deferral + undersized, full stack
  std::printf("  %zu scenarios x %zu variants x %zu trials\n",
              scenarios.size(), kVariants, trials);
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const WorkloadScenario& s = scenarios[sc];
    std::printf("\n  -- %s: %s --\n", s.name.c_str(), s.description.c_str());
    std::printf("  %-7s %8s %9s %7s %7s %7s %7s %7s %7s %9s\n", "variant",
                "dlvr", "goodput", "dark", "undersz", "brown", "resync",
                "shed", "defer", "ttr");
    bench::rule();
    for (std::size_t v = 0; v < kVariants; ++v) {
      const Cell& c = cells[sc * kVariants + v];
      std::printf("  %-7s %8.3f %9.3f %7.0f %7.0f %7.0f %7.0f %7.0f %7.0f"
                  " %9.1f\n",
                  kVariantNames[v], c.delivery(), c.goodput(), c.dark,
                  c.undersized, c.brownouts, c.resyncs, c.shed, c.deferrals,
                  c.mean_ttr());
      if (v == 0) full_engaged += c.shed + c.deferrals + c.undersized;
    }
    const Cell& full = cells[sc * kVariants + 0];
    bench::record_result(("workloads.delivery." + s.name).c_str(),
                         full.delivery());
    if (full.delivery() < s.delivery_floor) {
      std::printf("  FAIL: full-stack delivery %.3f below the %.2f floor\n",
                  full.delivery(), s.delivery_floor);
      ok = false;
    }
  }

  // The degradation machinery must actually engage somewhere...
  if (full_engaged <= 0.0) {
    std::printf("\n  FAIL: no scenario engaged the degradation stack "
                "(shed/deferral/undersized all zero)\n");
    ok = false;
  }
  // ...and the energy-blind variant must walk the brownout → resync →
  // recover path on the starved scenario.
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    if (scenarios[sc].name != "duty_starved") continue;
    const Cell& blind = cells[sc * kVariants + 1];
    if (blind.brownouts <= 0.0 || blind.resyncs <= 0.0 ||
        blind.recoveries <= 0.0) {
      std::printf("\n  FAIL: duty_starved/blind did not exercise the "
                  "brownout path (brownouts %.0f, resyncs %.0f, "
                  "recoveries %.0f)\n",
                  blind.brownouts, blind.resyncs, blind.recoveries);
      ok = false;
    }
  }

  if (!opt.out_dir.empty()) {
    std::ofstream f(opt.out_dir + "/workloads_scorecard.csv");
    f << "scenario,variant,delivery_ratio,goodput_bits_per_slot,"
         "mean_ttr_slots,slots,slots_dark,slots_undersized,slots_deferred,"
         "brownouts,slots_browned_out,resyncs,retries_shed,"
         "energy_deferrals,energy_violations,recoveries,"
         "energy_harvested_j,energy_spent_j,readings_offered,"
         "readings_delivered\n";
    char buf[512];
    for (std::size_t sc = 0; sc < scenarios.size(); ++sc)
      for (std::size_t v = 0; v < kVariants; ++v) {
        const Cell& c = cells[sc * kVariants + v];
        std::snprintf(buf, sizeof buf,
                      "%.6f,%.6f,%.3f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,"
                      "%.0f,%.0f,%.0f,%.0f,%.9g,%.9g,%.0f,%.0f",
                      c.delivery(), c.goodput(), c.mean_ttr(), c.slots,
                      c.dark, c.undersized, c.deferred, c.brownouts,
                      c.browned_slots, c.resyncs, c.shed, c.deferrals,
                      c.violations, c.recoveries, c.harvested_j, c.spent_j,
                      c.offered, c.delivered);
        f << bench::csv_field(scenarios[sc].name) << ','
          << kVariantNames[v] << ',' << buf << '\n';
      }
  }

  bench::rule();
  bench::note("the full degradation stack holds each scenario's delivery"
              " floor by rationing energy and retries; the energy-blind"
              " variant browns out, loses its ARQ state, and pays the"
              " resync + recovery latency the governor avoids");
  if (!ok) std::printf("  SCORECARD GATES FAILED\n");
  return ok ? 0 : 1;
}
