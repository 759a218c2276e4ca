#include "workload_summary.h"

namespace ms {

WorkloadSummary summarize_workload(const std::vector<SlotConditions>& trace) {
  WorkloadSummary s;
  s.slots = trace.size();
  double cap = 0.0;
  bool first = true;
  for (const SlotConditions& c : trace) {
    if (c.excitation) {
      ++s.excited_slots;
      cap += static_cast<double>(c.capacity_scale);
    }
    if (c.interferer) ++s.interfered_slots;
    const double off = static_cast<double>(c.snr_offset_db);
    if (first || off < s.min_snr_offset_db) s.min_snr_offset_db = off;
    if (first || off > s.max_snr_offset_db) s.max_snr_offset_db = off;
    first = false;
  }
  if (s.excited_slots > 0)
    s.mean_capacity_scale = cap / static_cast<double>(s.excited_slots);
  return s;
}

}  // namespace ms
