// Trace persistence: save/load IQ waveforms.
//
// Format: a small self-describing binary header ("MSTR", version,
// element type, sample rate, count) followed by raw little-endian
// float32 samples — enough to hand captures between the simulator,
// offline analysis, and GNURadio-style tooling.  The element type can
// also mark a real-valued trace, which load_iq_trace rejects by name.
// A CSV writer is provided for the bench outputs.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dsp/iq.h"

namespace ms {

/// Write a complex waveform.  Throws ms::Error on I/O failure.
void save_trace(const std::string& path, std::span<const Cf> iq,
                double sample_rate_hz);

/// Load a complex waveform; throws if the file holds a real trace.
Iq load_iq_trace(const std::string& path, double* sample_rate_hz = nullptr);

/// Write one or more named columns of doubles as CSV.
struct CsvColumn {
  std::string name;
  std::vector<double> values;
};
void save_csv(const std::string& path, std::span<const CsvColumn> columns);

}  // namespace ms
