// Overlay modulation (§2.4): reference-based tag modulation on top of
// productive carriers, decodable by a single commodity radio.
//
// A carrier is a train of modulatable sequences.  Each sequence is κ
// symbols: the first (reference) symbol carries productive data; the
// remaining κ−1 symbols repeat the reference symbol's content and are
// modulatable.  The tag overlays one tag bit per γ consecutive
// modulatable symbols (phase flip for 802.11b/n and ZigBee, Δf shift for
// BLE).  The receiver recovers productive data from reference symbols and
// tag data by comparing modulatable symbols against their reference —
// all from one packet on one radio.
#pragma once

#include <memory>
#include <span>

#include "common/bits.h"
#include "common/rng.h"
#include "dsp/iq.h"
#include "phy/protocol.h"

namespace ms {

struct OverlayParams {
  unsigned kappa = 8;  ///< symbols per sequence (1 reference + κ−1 modulatable)
  unsigned gamma = 4;  ///< modulatable symbols per tag bit

  /// Tag bits carried by one sequence.
  std::size_t tag_bits_per_sequence() const {
    return (kappa - 1) / gamma;
  }
};

/// The paper's empirically chosen tag spreading factors (Table 6):
/// γ = 4 for 802.11b and BLE, γ = 2 for 802.11n and ZigBee.
unsigned default_gamma(Protocol p);

/// κ presets of Table 6.  Mode 1 balances productive and tag data
/// (κ = 2γ), mode 2 triples the modulatable share (κ = 4γ), mode 3
/// spreads one reference symbol over the whole payload
/// (`payload_symbols`, clamped to ≥ 2).
enum class OverlayMode { Mode1, Mode2, Mode3 };
OverlayParams mode_params(Protocol p, OverlayMode mode,
                          std::size_t payload_symbols = 256);

struct OverlayDecoded {
  Bits productive;  ///< recovered productive bits (per reference symbol)
  Bits tag;         ///< recovered tag bits
};

/// Waveform-level encoder/decoder for one protocol.  Implementations own
/// the full chain: productive spreading at the transmitter, tag
/// modulation at the tag, and single-radio decoding at the receiver.
class OverlayCodec {
 public:
  virtual ~OverlayCodec() = default;

  virtual Protocol protocol() const = 0;
  virtual double sample_rate_hz() const = 0;

  /// Payload bits the reference symbol of one sequence carries.
  virtual std::size_t productive_bits_per_sequence() const = 0;

  /// Tag bits carried alongside n_sequences.
  std::size_t tag_capacity(std::size_t n_sequences) const {
    return n_sequences * params_.tag_bits_per_sequence();
  }

  /// Build the spread carrier: each productive symbol repeated κ times.
  virtual Iq make_carrier(std::span<const uint8_t> productive_bits) const = 0;

  /// Apply the tag's overlay modulation (phase flips / Δf shifts) to a
  /// carrier.  `tag_bits.size()` must not exceed the carrier's capacity.
  virtual Iq tag_modulate(std::span<const Cf> carrier,
                          std::span<const uint8_t> tag_bits) const = 0;

  /// Single-radio decode of both data streams from the received packet.
  virtual OverlayDecoded decode(std::span<const Cf> rx,
                                std::size_t n_sequences) const = 0;

  const OverlayParams& params() const { return params_; }

 protected:
  explicit OverlayCodec(OverlayParams params);
  OverlayParams params_;
};

/// Factory over the four protocols.
std::unique_ptr<OverlayCodec> make_overlay_codec(Protocol p,
                                                 OverlayParams params);

/// Convenience end-to-end run used by tests and benches: random
/// productive + tag payloads through carrier → tag → AWGN → decode;
/// returns measured BERs.
struct OverlayTrialResult {
  double productive_ber = 0.0;
  double tag_ber = 0.0;
};
OverlayTrialResult run_overlay_trial(const OverlayCodec& codec,
                                     std::size_t n_sequences, double snr_db,
                                     Rng& rng);

}  // namespace ms
