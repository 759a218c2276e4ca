// Single-cell execution filter (--only-cell P,T).
//
// A flight-recorder bundle's repro command re-runs the bench restricted
// to the one failed cell: every other cell is skipped before any work
// (no Rng fork, no shard writes), which makes the repro fast and keeps
// its stderr focused on the cell under study.
// Because a cell's random stream is Rng::fork(point, trial) of the run
// seed, skipping siblings cannot change what the selected cell computes.
//
// A filtered run is deliberately NOT byte-identical to a full run (most
// cells are absent); it is a triage mode, never a measurement mode.
#pragma once

#include <cstddef>
#include <optional>

namespace ms::runner {

struct CellFilter {
  std::size_t point = 0;
  std::size_t trial = 0;
};

/// Install (or clear, with nullopt) the process-wide cell filter.  Set
/// once by the bench CLI before any sweep runs.
void set_cell_filter(std::optional<CellFilter> filter);
const std::optional<CellFilter>& cell_filter();

/// Should cell (point, trial) execute?  True for every cell when no
/// filter is installed.
bool cell_allowed(std::size_t point, std::size_t trial);

}  // namespace ms::runner
