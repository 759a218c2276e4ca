// Single-radio overlay receiver with packet synchronization.
//
// The OverlayCodec decoders assume frame-aligned waveforms (the
// experiment engine controls timing).  This receiver removes that
// idealization: given a raw capture containing [noise][preamble][overlay
// payload], it finds the packet by correlating against the protocol's
// known packet-detection waveform, aligns to the payload start, and runs
// the overlay decode — what the commodity radio's own sync hardware does
// before handing bits to the paper's decoder.
#pragma once

#include <memory>
#include <optional>

#include "core/overlay/overlay.h"

namespace ms {

struct SyncResult {
  std::size_t preamble_start = 0;  ///< sample index of the preamble
  std::size_t payload_start = 0;   ///< first overlay-payload sample
  double metric = 0.0;             ///< normalized correlation peak [0, 1]
};

class OverlayReceiver {
 public:
  /// `params` must match the transmitter's overlay configuration.
  OverlayReceiver(Protocol protocol, OverlayParams params);

  /// Transmit-side helper: a full packet = packet-detection preamble +
  /// overlay carrier (already tag-modulated or not).
  Iq assemble_packet(std::span<const Cf> overlay_payload) const;

  /// Locate the packet in a raw capture: the earliest offset with the
  /// highest normalized correlation against the preamble, among windows
  /// whose energy passes a 1e-12 floor.  Returns nullopt when no such
  /// window correlates with the preamble at all, or when the peak is
  /// below `min_metric`.  Throws ms::Error naming the first sample
  /// that is not finite or whose float |x|² overflows.
  std::optional<SyncResult> synchronize(std::span<const Cf> rx,
                                        double min_metric = 0.5) const;

  /// Synchronize + decode `n_sequences` of overlay payload.
  std::optional<OverlayDecoded> receive(std::span<const Cf> rx,
                                        std::size_t n_sequences,
                                        double min_metric = 0.5) const;

  const OverlayCodec& codec() const { return *codec_; }
  std::size_t preamble_samples() const { return preamble_.size(); }

 private:
  Protocol protocol_;
  std::unique_ptr<OverlayCodec> codec_;
  Iq preamble_;          ///< clean packet-detection waveform (8 µs)
  double preamble_energy_ = 0.0;
};

}  // namespace ms
