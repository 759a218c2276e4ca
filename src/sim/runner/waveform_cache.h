// Deterministic cross-trial waveform cache.
//
// PHY synthesis (DSSS spreading, OFDM modulation, GFSK pulse shaping)
// dominates trial setup cost, yet many trials modulate one of a small
// set of distinct inputs: preambles are constant and payloads are short
// random draws, so the same air content recurs across trials, decision
// modes, and whole experiment phases (fig7's ordered pass replays the
// blind pass's seed).  The cache synthesizes each distinct input once
// per process and hands out shared immutable copies afterwards.
//
// Determinism contract (the part that matters):
//  - Callers draw their randomness from the trial Rng FIRST, exactly as
//    the uncached code did, and key the cache on the *drawn content*.
//    Rng streams are therefore untouched, and a cached waveform is
//    byte-identical to what fresh synthesis would produce — results
//    cannot drift, they can only arrive sooner.
//  - Hit/miss accounting is scoped to an *epoch*, not to the process.
//    TrialRunner begins a new epoch when it is constructed, and a
//    lookup counts as a miss iff it is the first lookup of its key in
//    the current epoch — even when the waveform is served from a
//    previous epoch's entry.  Accounting is therefore a pure function
//    of the run's own draw sequence: byte-identical at any --threads,
//    across repeated runs in one process (the telemetry determinism
//    suite replays seeded sweeps back-to-back), and across processes.
//    misses = distinct keys this epoch; hits = lookups − misses.
//  - Disabling reuse (--waveform-cache off) makes every lookup
//    synthesize fresh but KEEPS the accounting above, so the metrics
//    JSON is byte-identical with the cache on or off — the ctest
//    determinism gate diffs the two directly.
//
// Counters land in the obs registry as runner.waveform_cache_hit,
// runner.waveform_cache_miss, and runner.waveform_cache_synth_samples
// (waveform samples attributed to this epoch's miss lookups — i.e. what
// a cold cache would have synthesized).  All three are counters, so
// shard merge order cannot affect them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"  // fnv1a: key hashing and WaveformKey::params
#include "dsp/iq.h"

namespace ms {

/// What family of waveform a key describes (disjoint key spaces, so an
/// excitation key can never alias a future backscatter/template key).
enum class WaveformKind : std::uint8_t {
  Excitation = 0,  ///< packet-start waveform a tag hears (ident trials)
};

/// Cache key: the complete recipe for one synthesis.  `payload` holds
/// the exact random content drawn for the trial (bits, symbols, flags),
/// so equality is exact — hashing is only used for bucketing and a
/// collision costs a probe, never a wrong waveform.
struct WaveformKey {
  WaveformKind kind = WaveformKind::Excitation;
  std::uint8_t protocol = 0;   ///< protocol_index() of the PHY
  std::uint64_t params = 0;    ///< hash of non-payload synth parameters
  std::vector<std::uint8_t> payload;

  bool operator==(const WaveformKey&) const = default;
};

struct WaveformKeyHash {
  std::size_t operator()(const WaveformKey& k) const;
};

/// Process-wide waveform cache.  Thread-safe; synthesis runs outside the
/// map lock (a slow OFDM modulate never blocks unrelated lookups).
class WaveformCache {
 public:
  static WaveformCache& instance();

  /// Return the waveform for `key`, synthesizing via `synth` when the
  /// key has never been seen (or when reuse is disabled).  `synth` must
  /// be a pure function of `key`.  See the header comment for the
  /// hit/miss accounting rules.
  std::shared_ptr<const Iq> get_or_synthesize(
      const WaveformKey& key, const std::function<Iq()>& synth);

  /// Start a new accounting epoch (TrialRunner calls this from its
  /// constructor).  Cached waveforms survive; only the first-lookup
  /// bookkeeping resets.
  void begin_epoch();

  /// --waveform-cache on|off.  Off = always synthesize fresh (bitwise
  /// oracle for the cached path); accounting still runs.
  void set_reuse_enabled(bool enabled);
  bool reuse_enabled() const;

  /// Drop all entries and zero the local stats (obs counters are owned
  /// by the telemetry registry and are not touched).  Test isolation;
  /// never call while lookups are in flight.
  void clear();

  std::size_t entries() const;

  /// Process-lifetime accounting totals (mirrors the obs counters).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t synth_samples = 0;
  };
  Stats stats() const;

 private:
  WaveformCache() = default;

  struct Entry {
    std::mutex m;                    ///< serializes first synthesis
    std::shared_ptr<const Iq> wave;  ///< null until synthesized
    std::uint64_t last_epoch = 0;    ///< epoch of the last miss lookup
  };

  mutable std::mutex mu_;
  std::unordered_map<WaveformKey, std::unique_ptr<Entry>, WaveformKeyHash>
      map_;
  std::uint64_t epoch_ = 1;
  bool reuse_ = true;
  Stats stats_;
};

}  // namespace ms
