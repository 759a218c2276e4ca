#include "sim/runner/watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/error.h"
#include "sim/runner/thread_pool.h"

namespace ms::runner {

/// Per-worker deadline slot.  The owning worker writes start/point/trial
/// at cell entry; the monitor thread reads them and writes cancel; the
/// worker polls cancel.  All cross-thread traffic is atomic.
struct Slot {
  std::atomic<std::uint64_t> start_ns{0};  ///< 0 = no cell executing
  std::atomic<bool> cancel{false};
  std::atomic<std::uint32_t> point{0};
  std::atomic<std::uint32_t> trial{0};
};

namespace {

thread_local Slot* tls_slot = nullptr;
thread_local double tls_deadline_s = 0.0;

double g_default_deadline_s = 0.0;  // 0 = watchdog disabled

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// MS_HANG_AT_CELL, read once per process.  A malformed value is kept
/// as a message and thrown by take_hang, never by a static initializer:
/// GCC 12's ThreadSanitizer runtime does not wake threads waiting on an
/// initializer that throws, so they would deadlock.
struct HangPlan {
  bool armed = false;
  std::uint32_t point = 0;
  std::uint32_t trial = 0;
  std::string error;  ///< nonempty when the variable is malformed
};

/// One cell index: decimal digits only, at most 2^32 - 1, the range of a
/// cell coordinate.
std::optional<std::uint32_t> parse_hang_index(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  }
  return static_cast<std::uint32_t>(v);
}

HangPlan read_hang_plan() {
  HangPlan p;
  const char* v = std::getenv("MS_HANG_AT_CELL");
  if (!v) return p;
  const std::string s(v);
  const std::size_t comma = s.find(',');
  std::optional<std::uint32_t> point, trial;
  if (comma != std::string::npos) {
    point = parse_hang_index(s.substr(0, comma));
    trial = parse_hang_index(s.substr(comma + 1));
  }
  if (!point || !trial) {
    p.error = "MS_HANG_AT_CELL='" + s +
              "' is not <point>,<trial> with both non-negative integers "
              "below 2^32";
    return p;
  }
  p.armed = true;
  p.point = *point;
  p.trial = *trial;
  return p;
}

std::atomic<bool> g_hang_taken{false};

std::string cancelled_what(std::uint32_t point, std::uint32_t trial,
                           double deadline_s, double elapsed_s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "trial watchdog: cell (point %u, trial %u) overran its "
                "%.3f s deadline (%.3f s elapsed); quarantining",
                point, trial, deadline_s, elapsed_s);
  return buf;
}

}  // namespace

CellCancelled::CellCancelled(std::uint32_t point, std::uint32_t trial,
                             double deadline_s, double elapsed_s)
    : std::runtime_error(cancelled_what(point, trial, deadline_s, elapsed_s)),
      point(point),
      trial(trial),
      deadline_s(deadline_s),
      elapsed_s(elapsed_s) {}

Watchdog::Watchdog(double deadline_s, std::size_t n_workers)
    : deadline_s_(deadline_s) {
  if (deadline_s_ <= 0.0) return;
  n_slots_ = n_workers + 1;  // +1 slot for calls outside any pool worker
  slots_ = std::make_unique<Slot[]>(n_slots_);
  monitor_ = std::thread([this] { monitor_loop(); });
}

Watchdog::~Watchdog() {
  if (!monitor_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  monitor_.join();
}

void Watchdog::monitor_loop() {
  const auto deadline_ns =
      static_cast<std::uint64_t>(deadline_s_ * 1e9);
  // Poll a few times per deadline so detection latency stays a fraction
  // of the deadline itself, but never spin faster than 1 ms.
  const std::uint64_t poll_ns = std::max<std::uint64_t>(
      1'000'000, std::min<std::uint64_t>(deadline_ns / 4, 10'000'000));
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(poll_ns));
    const std::uint64_t now = now_ns();
    for (std::size_t i = 0; i < n_slots_; ++i) {
      const std::uint64_t start =
          slots_[i].start_ns.load(std::memory_order_acquire);
      if (start != 0 && now > start && now - start > deadline_ns)
        slots_[i].cancel.store(true, std::memory_order_release);
    }
  }
}

Watchdog::CellScope::CellScope(Watchdog& wd, std::uint32_t point,
                               std::uint32_t trial) {
  if (!wd.active()) return;
  std::size_t w = ThreadPool::current_worker();
  if (w == ThreadPool::kNotAWorker) w = wd.n_slots_ - 1;
  MS_CHECK(w < wd.n_slots_);
  slot_ = &wd.slots_[w];
  slot_->point.store(point, std::memory_order_relaxed);
  slot_->trial.store(trial, std::memory_order_relaxed);
  slot_->cancel.store(false, std::memory_order_relaxed);
  slot_->start_ns.store(now_ns(), std::memory_order_release);
  tls_slot = slot_;
  tls_deadline_s = wd.deadline_s_;
}

Watchdog::CellScope::~CellScope() {
  if (!slot_) return;
  slot_->start_ns.store(0, std::memory_order_release);
  tls_slot = nullptr;
  tls_deadline_s = 0.0;
}

void watchdog_poll() {
  Slot* s = tls_slot;
  if (!s || !s->cancel.load(std::memory_order_relaxed)) return;
  const double elapsed =
      (now_ns() - s->start_ns.load(std::memory_order_relaxed)) * 1e-9;
  throw CellCancelled(s->point.load(std::memory_order_relaxed),
                      s->trial.load(std::memory_order_relaxed),
                      tls_deadline_s, elapsed);
}

bool take_hang(std::uint32_t point, std::uint32_t trial) {
  static const HangPlan plan = read_hang_plan();
  if (!plan.error.empty()) throw Error(plan.error);
  if (!plan.armed || point != plan.point || trial != plan.trial) return false;
  return !g_hang_taken.exchange(true, std::memory_order_relaxed);
}

void hang_until_cancelled() {
  MS_CHECK_MSG(tls_slot != nullptr,
               "hang_until_cancelled() requires an active trial watchdog "
               "(run with --trial-deadline-ms > 0)");
  for (;;) {
    watchdog_poll();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void set_default_trial_deadline(double seconds) {
  g_default_deadline_s = seconds;
}

double default_trial_deadline() { return g_default_deadline_s; }

obs::MetricId poison_metric() {
  static const obs::MetricId id = obs::counter("runner.poison_cells");
  return id;
}

obs::MetricId trace_ring_drop_metric() {
  // Bounds span "lost a couple" to "lost nearly everything" relative to
  // TelemetryShard::kEventCapacity (1024).
  static constexpr double kDropBounds[] = {1.0, 8.0, 64.0, 512.0, 4096.0};
  static const obs::MetricId id =
      obs::histogram("runner.trace_ring_dropped", kDropBounds);
  return id;
}

}  // namespace ms::runner
