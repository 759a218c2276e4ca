// Aggregate shape of a built workload trace: what the workload and
// scenario tests check a trace against (a scenario that never excites
// or never interferes is a configuration bug, not an adversary).
// Test-only: linked through ms_test_support, never by src/.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/workload/workload.h"

namespace ms {

struct WorkloadSummary {
  std::size_t slots = 0;
  std::size_t excited_slots = 0;
  std::size_t interfered_slots = 0;
  double mean_capacity_scale = 0.0;  ///< over excited slots
  double min_snr_offset_db = 0.0;
  double max_snr_offset_db = 0.0;
};

WorkloadSummary summarize_workload(const std::vector<SlotConditions>& trace);

}  // namespace ms
