// Trial-engine scaling: trials/sec for the Fig 7 ident sweep at 1, 2,
// 4, and 8 worker threads, with a byte-determinism cross-check (every
// thread count must produce the identical confusion matrix).  Writes
// runner_scaling.csv when --out DIR is given.  --trials overrides the
// per-protocol trial count (default 60).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments.h"
#include "sim/ident_experiment.h"
#include "sim/runner/thread_pool.h"
#include "sim/trace_io.h"

using namespace ms;

int ms::bench::runner_scaling(const CliOptions& opt) {
  const std::size_t trials = opt.trials;

  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  if (opt.seed) cfg.seed = opt.seed;

  bench::title("Runner scaling", "ident sweep trials/sec vs worker threads");
  std::printf("  hardware threads: %zu\n", ThreadPool::hardware_threads());
  std::printf("  sweep: 4 protocols x %zu trials\n\n", trials);
  std::printf("  %-8s %10s %12s %10s %8s\n", "threads", "seconds",
              "trials/sec", "speedup", "same");
  bench::rule();

  const double total_trials = 4.0 * static_cast<double>(trials);
  CsvColumn ct{"threads", {}}, cs{"seconds", {}}, cr{"trials_per_sec", {}},
      cx{"speedup_vs_1", {}};
  IdentResult reference;
  double t1 = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    cfg.threads = threads;
    TrialRunner runner({cfg.threads, cfg.seed});
    runner.pool().reset_worker_stats();
    const auto start = std::chrono::steady_clock::now();
    const IdentResult r = run_ident_experiment(runner, cfg, trials);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (threads == 1) {
      reference = r;
      t1 = secs;
    }
    const bool identical = r.confusion == reference.confusion;
    std::printf("  %-8zu %10.3f %12.1f %9.2fx %8s\n", threads, secs,
                total_trials / secs, t1 / secs, identical ? "yes" : "NO");

    // Scheduling breakdown (nondeterministic by nature — printed, never
    // fed into the deterministic metrics registry).
    const auto stats = runner.pool().worker_stats();
    std::uint64_t busy_sum = 0;
    std::printf("           worker   tasks  steals   busy_ms\n");
    for (std::size_t w = 0; w < stats.size(); ++w) {
      busy_sum += stats[w].busy_ns;
      std::printf("           %-8zu %6llu %7llu %9.1f\n", w,
                  static_cast<unsigned long long>(stats[w].tasks),
                  static_cast<unsigned long long>(stats[w].steals),
                  static_cast<double>(stats[w].busy_ns) / 1e6);
    }
    const double idle_ms =
        secs * 1e3 * static_cast<double>(threads) -
        static_cast<double>(busy_sum) / 1e6;
    std::printf("           pool idle: %.1f ms (wall x threads - busy)\n",
                idle_ms > 0.0 ? idle_ms : 0.0);

    ct.values.push_back(static_cast<double>(threads));
    cs.values.push_back(secs);
    cr.values.push_back(total_trials / secs);
    cx.values.push_back(t1 / secs);
    if (!identical) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %zu-thread confusion differs from"
                   " 1-thread\n",
                   threads);
      return 1;
    }
  }

  if (!opt.out_dir.empty()) {
    const std::string out = opt.out_dir + "/runner_scaling.csv";
    const std::vector<CsvColumn> cols = {ct, cs, cr, cx};
    save_csv(out, cols);
    std::printf("  csv: %s\n", out.c_str());
  }
  bench::rule();
  bench::note("speedup tracks physical cores: expect ~linear up to the");
  bench::note("machine's core count, flat beyond it (this box may have");
  bench::note("fewer than 8 cores — the determinism column must stay");
  bench::note("'yes' regardless)");
  return 0;
}
