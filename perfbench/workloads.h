// The benchmark's four workloads (see perfbench/README.md for why each
// exists).  A workload builds its fixed objects in setup() and then runs
// any number of passes; a pass's outputs are folded into a digest that
// must not depend on the thread count or on tracing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct PassResult {
  std::uint64_t digest = 0;
  std::size_t units = 0;         ///< trials, packets or sessions attempted
  std::size_t failed_units = 0;  ///< of those, how many threw
  /// Work counts for per-layer ratios (cache lookups, ARQ frames, ...).
  std::vector<std::pair<std::string, double>> counters;
  std::string summary;  ///< short human-readable headline numbers
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build (or rebuild) the fixed objects the passes reuse.
  virtual void setup() = 0;
  /// One pass over the workload's whole grid at `threads` engine threads.
  /// Traced when a tracer is active (the caller guarantees threads == 1).
  virtual PassResult pass(std::size_t threads) = 0;
  virtual std::size_t units_per_pass() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

void clear_waveform_cache();

}  // namespace perfbench
