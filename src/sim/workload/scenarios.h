// Named adversarial workload scenarios (the survival scorecard rows).
//
// Each scenario pairs a workload trace recipe (workload.h) with the
// link-session configuration a tag would face it with, plus the
// delivery-ratio floor the full degradation stack must hold — the
// regression gate `msbench robustness_workloads` enforces.  The catalog is
// documented in docs/FAULTS.md; keep the two in sync.
#pragma once

#include <string>
#include <vector>

#include "core/tag/link_session.h"
#include "sim/workload/workload.h"

namespace ms {

struct WorkloadScenario {
  std::string name;
  std::string description;
  WorkloadConfig workload;
  LinkSessionConfig link;  ///< base config; bench variants toggle the
                           ///< degradation stack on top
  std::size_t n_readings = 12;
  /// The full degradation stack's reading delivery ratio must stay at
  /// or above this (averaged over trials) — the survival gate.
  double delivery_floor = 0.5;
};

/// The standard catalog: steady control, BLE advertising starvation,
/// Wi-Fi MCS churn, parked coexistence interferers, a deep-fade
/// mobility walk, and a duty-cycled energy-starved deployment.
std::vector<WorkloadScenario> standard_scenarios();

}  // namespace ms
