#include "sim/runner/waveform_cache.h"

#include "obs/metrics.h"

namespace ms {

namespace {

struct CacheMetrics {
  obs::MetricId hit = obs::counter("runner.waveform_cache_hit");
  obs::MetricId miss = obs::counter("runner.waveform_cache_miss");
  obs::MetricId synth_samples =
      obs::counter("runner.waveform_cache_synth_samples");
};

const CacheMetrics& cache_metrics() {
  static const CacheMetrics m;
  return m;
}

}  // namespace

std::size_t WaveformKeyHash::operator()(const WaveformKey& k) const {
  const std::uint8_t head[2] = {static_cast<std::uint8_t>(k.kind),
                                k.protocol};
  std::uint64_t h = fnv1a(head, sizeof(head));
  h = fnv1a(&k.params, sizeof(k.params), h);
  if (!k.payload.empty()) h = fnv1a(k.payload.data(), k.payload.size(), h);
  return static_cast<std::size_t>(h);
}

WaveformCache& WaveformCache::instance() {
  static WaveformCache cache;
  return cache;
}

std::shared_ptr<const Iq> WaveformCache::get_or_synthesize(
    const WaveformKey& key, const std::function<Iq()>& synth) {
  const CacheMetrics& m = cache_metrics();
  Entry* entry = nullptr;
  bool miss = false;
  bool reuse = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.try_emplace(key);
    if (inserted) it->second = std::make_unique<Entry>();
    entry = it->second.get();
    // First lookup of a key in this epoch is the miss, even when the
    // waveform is already cached from an earlier epoch and even if a
    // concurrent sibling ends up doing the actual synthesis — that
    // keeps misses = distinct keys per epoch at any thread count.
    miss = entry->last_epoch != epoch_;
    entry->last_epoch = epoch_;
    reuse = reuse_;
    if (miss)
      ++stats_.misses;
    else
      ++stats_.hits;
  }
  obs::add(miss ? m.miss : m.hit);

  if (!reuse) {
    // Oracle mode: synthesize fresh every call; accounting unchanged.
    Iq w = synth();
    if (miss) {
      obs::add(m.synth_samples, w.size());
      std::lock_guard<std::mutex> lock(mu_);
      stats_.synth_samples += w.size();
    }
    return std::make_shared<const Iq>(std::move(w));
  }

  std::shared_ptr<const Iq> wave;
  {
    std::lock_guard<std::mutex> entry_lock(entry->m);
    if (!entry->wave) entry->wave = std::make_shared<const Iq>(synth());
    wave = entry->wave;
  }
  if (miss) {
    obs::add(m.synth_samples, wave->size());
    std::lock_guard<std::mutex> lock(mu_);
    stats_.synth_samples += wave->size();
  }
  return wave;
}

void WaveformCache::begin_epoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
}

void WaveformCache::set_reuse_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  reuse_ = enabled;
}

bool WaveformCache::reuse_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reuse_;
}

void WaveformCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  stats_ = Stats{};
}

std::size_t WaveformCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

WaveformCache::Stats WaveformCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ms
