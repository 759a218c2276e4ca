// Benchmark harness: runs one workload through the library's public
// functions and prints one JSON object describing every pass.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans-out FILE]
//
// Untraced (--trace 0): passes alternate between 1 and 2 trial-engine
// threads until S seconds have been spent; set-up is timed in a burst of
// repetitions before the first pass and before every pass.  Every pass
// reports its own peak resident memory.  Traced
// (--trace 1): one traced set-up, one untraced pass at 2 threads, then
// 1-thread passes alternating untraced and traced; the spans go to
// --spans-out.  Every pass reports an output digest; perfbench/run.py
// checks the digests, turns
// the passes and spans into metrics and prints the result.
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

Tracer* g_tracer = nullptr;

}  // namespace

Tracer* active_tracer() { return g_tracer; }
void set_active_tracer(Tracer* tracer) { g_tracer = tracer; }

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("#layers", f);
  for (const char* name : kLayerNames) std::fprintf(f, "\t%s", name);
  std::fputc('\n', f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%lld\t%lld\t%d\t%d\t%.17g\n", i,
                 static_cast<unsigned>(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.pass, s.units);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

using perfbench::Layer;
using perfbench::PassResult;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

// Upper bound on the set-up repetitions of one burst; the burst's time
// budget is usually the tighter limit.
constexpr std::size_t kMaxSetupReps = 51;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag + ": " + v).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace && a.spans_out.empty()) usage("--trace 1 needs --spans-out");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Start a new peak-memory window: hand free heap pages back to the
/// kernel, then reset the kernel's resident high-water mark (VmHWM) to
/// the current resident size.  Without the reset, the peak would be the
/// largest of all earlier passes, and which malloc arenas the 2-thread
/// passes left behind would decide it.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in kB, or -1 when /proc is unreadable.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kb = -1;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

struct PassRecord {
  std::size_t threads = 1;
  bool traced = false;
  double wall_s = 0.0;
  long peak_rss_kb = -1;
  PassResult result;
  std::string error;  ///< non-empty when the pass threw
};

PassRecord run_pass(Workload& w, std::size_t threads, perfbench::Tracer* tracer,
                    std::int32_t pass_id) {
  PassRecord rec;
  rec.threads = threads;
  rec.traced = tracer != nullptr;
  // Each figure run is a fresh process that pays for waveform synthesis;
  // a warm cache would hide that cost.
  perfbench::clear_waveform_cache();
  reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  try {
    if (tracer) {
      tracer->set_pass(pass_id);
      perfbench::set_active_tracer(tracer);
      perfbench::Scope pass(Layer::Pass);
      rec.result = w.pass(threads);
    } else {
      rec.result = w.pass(threads);
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
    rec.result.units = w.units_per_pass();
    rec.result.failed_units = rec.result.units;
  }
  rec.wall_s = since(t0);
  rec.peak_rss_kb = peak_rss_kb();
  perfbench::set_active_tracer(nullptr);
  return rec;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> w = perfbench::make_workload(args.workload, args.seed);
  if (!w) usage(("unknown workload " + args.workload).c_str());

  std::vector<double> setup_s;
  // Times set-up repeatedly for up to `budget_s` (at least once, at most
  // kMaxSetupReps times).  A sub-millisecond set-up needs many repetitions
  // for a steady median, and bursts spread over the run sample the same
  // host conditions as the passes.
  auto time_setup = [&](double budget_s) {
    const Clock::time_point burst = Clock::now();
    try {
      for (std::size_t k = 0;
           k < kMaxSetupReps && (k == 0 || since(burst) < budget_s); ++k) {
        const Clock::time_point t0 = Clock::now();
        perfbench::Scope s(Layer::Setup);
        w->setup();
        setup_s.push_back(since(t0));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_harness: set-up failed: %s\n", e.what());
      std::exit(1);
    }
  };

  std::unique_ptr<perfbench::Tracer> tracer;
  if (args.trace) {
    // One traced set-up, so set-up layers (template build, slot-trace
    // build) get their own spans under pass id -1.
    tracer = std::make_unique<perfbench::Tracer>();
    perfbench::set_active_tracer(tracer.get());
    time_setup(0.0);
    perfbench::set_active_tracer(nullptr);
  } else {
    time_setup(0.2);
  }

  std::vector<PassRecord> passes;
  const Clock::time_point start = Clock::now();
  // Stop once the next pass is predicted to overrun the budget (the last
  // pass at the same thread count is the prediction).
  auto fits = [&](double last_s) {
    return since(start) + last_s <= args.seconds;
  };
  if (!args.trace) {
    double last[3] = {0.0, 0.0, 0.0};
    std::size_t count[3] = {0, 0, 0};
    for (std::size_t i = 0;; ++i) {
      const std::size_t threads = i % 2 == 0 ? 1 : 2;
      if (count[1] > 0 && count[2] > 0 && !fits(last[threads])) break;
      time_setup(0.05);
      passes.push_back(run_pass(*w, threads, nullptr,
                                static_cast<std::int32_t>(i)));
      last[threads] = passes.back().wall_s;
      ++count[threads];
    }
  } else {
    // Traced passes alternate with untraced 1-thread passes, so the
    // tracing overhead compares passes run under the same conditions.
    passes.push_back(run_pass(*w, 2, nullptr, 0));
    passes.push_back(run_pass(*w, 1, nullptr, 1));
    // Three traced passes are enough for the per-layer means and keep
    // the span file of the largest workload under ~40 MB.
    constexpr std::int32_t kTracedPasses = 3;  // ids 2, 4, 6
    double last = passes.back().wall_s;
    for (std::int32_t id = 2;
         id == 2 || (id <= 2 * kTracedPasses && fits(last)); ++id) {
      const bool traced = id % 2 == 0;
      passes.push_back(run_pass(*w, 1, traced ? tracer.get() : nullptr, id));
      last = passes.back().wall_s;
    }
    if (!tracer->write(args.spans_out)) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"build_type\": \"%s\", \"setup_s\": [",
              json_escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE);
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    std::printf("%s%.9f", i ? ", " : "", setup_s[i]);
  std::printf("], \"passes\": [");
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    std::printf("%s\n  {\"id\": %zu, \"threads\": %zu, \"traced\": %s, "
                "\"wall_s\": %.9f, \"peak_rss_kb\": %ld, \"digest\": \"%016llx\", \"units\": %zu, "
                "\"failed_units\": %zu, \"error\": \"%s\", \"counters\": {",
                i ? "," : "", i, p.threads, p.traced ? "true" : "false",
                p.wall_s, p.peak_rss_kb, static_cast<unsigned long long>(p.result.digest),
                p.result.units, p.result.failed_units,
                json_escape(p.error).c_str());
    for (std::size_t c = 0; c < p.result.counters.size(); ++c)
      std::printf("%s\"%s\": %.17g", c ? ", " : "",
                  p.result.counters[c].first.c_str(),
                  p.result.counters[c].second);
    std::printf("}, \"summary\": \"%s\"}", json_escape(p.result.summary).c_str());
  }
  std::printf("\n]}\n");
  return 0;
}
