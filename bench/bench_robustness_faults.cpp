// Robustness: fault-injection sweeps for the resilient tag link layer.
//
// Three studies, all seeded and fully reproducible (same seed → same
// numbers → same CSV):
//   1. goodput vs i.i.d. frame-corruption probability — stop-and-wait
//      ARQ + adaptive (γ, FEC) vs ARQ with fixed protection vs the
//      seed's blind send-once path;
//   2. goodput / recovery vs Gilbert–Elliott bad-state entry rate (deep
//      fades, occlusions) — where NACK-driven adaptation pays off;
//   3. identification accuracy vs excitation/ADC fault intensity (CFO,
//      burst interferers, dropouts, truncated sample streams).
// Runs on the parallel trial engine: every (sweep row × link variant)
// is an independent task and output is byte-identical at any --threads
// value.  --out DIR additionally dumps each sweep as CSV.
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/tag/link_session.h"
#include "experiments.h"
#include "sim/ident_experiment.h"
#include "sim/runner/trial_runner.h"
#include "sim/trace_io.h"

using namespace ms;

namespace {

constexpr std::uint64_t kSeed = 2020;
constexpr std::size_t kReadings = 160;
constexpr std::size_t kMaxSlots = 4000;

LinkSessionConfig session_base() {
  LinkSessionConfig cfg;
  cfg.link_quality.p_good_to_bad = 0.0;  // study 1 isolates frame faults
  return cfg;
}

LinkSessionReport run_variant(LinkSessionConfig cfg, bool arq, bool adapt) {
  cfg.arq_enabled = arq;
  cfg.adaptation_enabled = arq && adapt;
  Rng rng(kSeed);
  LinkSession session(cfg);
  return session.run_trace(kReadings,
                           std::vector<SlotConditions>(kMaxSlots), rng);
}

struct SweepRow {
  double x = 0.0;
  LinkSessionReport adaptive, fixed, blind;
};

/// Fan one sweep out on the engine: grid = (row × 3 link variants),
/// merged back into SweepRows in row order.  Each variant seeds its own
/// Rng(kSeed) internally, so the fan-out changes scheduling only.
template <typename MakeCfg>
std::vector<SweepRow> run_sweep(const std::vector<double>& xs,
                                MakeCfg&& make_cfg, std::size_t threads) {
  TrialRunner runner({threads, kSeed});
  auto reports = runner.run_grid(
      xs.size(), 3, [&](std::size_t row, std::size_t variant, Rng&) {
        const LinkSessionConfig cfg = make_cfg(xs[row]);
        if (variant == 0) return run_variant(cfg, true, true);
        if (variant == 1) return run_variant(cfg, true, false);
        return run_variant(cfg, false, false);
      });
  std::vector<SweepRow> rows;
  rows.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    rows.push_back({xs[i], reports[i * 3 + 0], reports[i * 3 + 1],
                    reports[i * 3 + 2]});
  return rows;
}

void print_rows(const char* xname, const std::vector<SweepRow>& rows) {
  std::printf("  %-12s %26s %26s %20s\n", "", "ARQ + adaptive", "ARQ fixed",
              "no ARQ (seed)");
  std::printf("  %-12s %9s %8s %7s %9s %8s %7s %9s %10s\n", xname, "goodput",
              "dlvr", "recov", "goodput", "dlvr", "recov", "goodput", "dlvr");
  bench::rule();
  for (const SweepRow& r : rows)
    std::printf("  %-12.3f %9.2f %8.3f %7.3f %9.2f %8.3f %7.3f %9.2f %10.3f\n",
                r.x, r.adaptive.goodput_bits_per_slot(),
                r.adaptive.reading_delivery_rate(), r.adaptive.recovery_rate(),
                r.fixed.goodput_bits_per_slot(),
                r.fixed.reading_delivery_rate(), r.fixed.recovery_rate(),
                r.blind.goodput_bits_per_slot(),
                r.blind.reading_delivery_rate());
}

void dump_rows(const char* dir, const char* file, const char* xname,
               const std::vector<SweepRow>& rows) {
  CsvColumn x{xname, {}}, ga{"goodput_arq_adaptive", {}},
      da{"delivery_arq_adaptive", {}}, ra{"recovery_arq_adaptive", {}},
      gamma{"mean_gamma_adaptive", {}}, reps{"mean_fec_repeats_adaptive", {}},
      gf{"goodput_arq_fixed", {}}, df{"delivery_arq_fixed", {}},
      gb{"goodput_no_arq", {}}, db{"delivery_no_arq", {}};
  for (const SweepRow& r : rows) {
    x.values.push_back(r.x);
    ga.values.push_back(r.adaptive.goodput_bits_per_slot());
    da.values.push_back(r.adaptive.reading_delivery_rate());
    ra.values.push_back(r.adaptive.recovery_rate());
    gamma.values.push_back(r.adaptive.mean_gamma);
    reps.values.push_back(r.adaptive.mean_fec_repeats);
    gf.values.push_back(r.fixed.goodput_bits_per_slot());
    df.values.push_back(r.fixed.reading_delivery_rate());
    gb.values.push_back(r.blind.goodput_bits_per_slot());
    db.values.push_back(r.blind.reading_delivery_rate());
  }
  const std::vector<CsvColumn> cols = {x,  ga, da, ra, gamma,
                                       reps, gf, df, gb, db};
  save_csv(std::string(dir) + "/" + file, cols);
}

/// Legend for the sweep CSVs: maps each variant column prefix to a
/// human-readable description.  The descriptions contain commas, so the
/// fields go through bench::csv_field (RFC 4180 quoting).
void dump_variant_legend(const std::string& dir) {
  std::ofstream f(dir + "/faults_variants.csv");
  if (!f.is_open()) return;
  f << "variant,description\n";
  const std::pair<const char*, const char*> rows[] = {
      {"arq_adaptive",
       "stop-and-wait ARQ, NACK-driven (gamma, FEC) ladder adaptation"},
      {"arq_fixed", "stop-and-wait ARQ, fixed protection level"},
      {"no_arq", "seed path: send once, no ACK, no retry"},
  };
  for (const auto& [variant, desc] : rows)
    f << bench::csv_field(variant) << ',' << bench::csv_field(desc) << '\n';
}

double ident_accuracy(const FaultConfig& faults, std::size_t threads) {
  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.faults = faults;
  cfg.seed = kSeed;
  cfg.threads = threads;
  return run_ident_experiment(cfg, 40).average_accuracy();
}

}  // namespace

int ms::bench::robustness_faults(const CliOptions& opt) {
  bench::title("Robustness: faults",
               "link-layer goodput and identification under injected faults");

  // --- 1. i.i.d. frame corruption ------------------------------------
  std::printf("\n  -- goodput vs frame-corruption probability"
              " (bits/slot) --\n");
  const std::vector<SweepRow> corrupt_rows = run_sweep(
      {0.0, 0.05, 0.10, 0.20, 0.30},
      [](double p) {
        LinkSessionConfig cfg = session_base();
        cfg.frame_corrupt_prob = p;
        return cfg;
      },
      opt.threads);
  print_rows("P(corrupt)", corrupt_rows);
  const double clean = corrupt_rows[0].adaptive.goodput_bits_per_slot();
  const double at10 = corrupt_rows[2].adaptive.goodput_bits_per_slot();
  std::printf("  ARQ+adaptive goodput at 10%% corruption: %.1f%% of"
              " fault-free\n", 100.0 * at10 / clean);

  // --- 2. Gilbert–Elliott link-quality jumps --------------------------
  std::printf("\n  -- goodput vs bad-state entry probability (12 dB"
              " fade) --\n");
  const std::vector<SweepRow> fade_rows = run_sweep(
      {0.0, 0.02, 0.05, 0.10, 0.20},
      [](double p) {
        LinkSessionConfig cfg = session_base();
        cfg.link_quality.p_good_to_bad = p;
        return cfg;
      },
      opt.threads);
  print_rows("P(g->b)", fade_rows);

  // --- 2b. persistent fades: where the (γ, FEC) ladder pays off --------
  std::printf("\n  -- goodput vs tag-link SNR (parked interferer /"
              " occlusion) --\n");
  const std::vector<SweepRow> snr_rows = run_sweep(
      {4.0, 0.0, -4.0, -8.0, -12.0},
      [](double snr) {
        LinkSessionConfig cfg = session_base();
        cfg.base_snr_db = snr;
        return cfg;
      },
      opt.threads);
  print_rows("SNR (dB)", snr_rows);

  // --- 3. identification under excitation/ADC faults ------------------
  std::printf("\n  -- identification accuracy vs fault intensity --\n");
  std::printf("  %-12s %10s %10s %10s %10s\n", "intensity", "clean", "cfo",
              "burst", "adc-trunc");
  bench::rule();
  CsvColumn ix{"intensity", {}}, ic{"acc_clean", {}}, io{"acc_cfo", {}},
      ib{"acc_burst", {}}, it{"acc_adc_truncate", {}};
  const double base = ident_accuracy(FaultConfig{}, opt.threads);
  for (double intensity : {0.25, 0.5, 1.0}) {
    FaultConfig cfo;
    cfo.cfo_max_hz = intensity * 200e3;
    FaultConfig burst;
    burst.burst_prob = intensity;
    burst.burst_power_ratio = 4.0;
    burst.burst_fraction = 0.2;
    FaultConfig trunc;
    trunc.adc_truncate_prob = intensity;
    const double ac = ident_accuracy(cfo, opt.threads),
                 ab = ident_accuracy(burst, opt.threads),
                 at = ident_accuracy(trunc, opt.threads);
    std::printf("  %-12.2f %10.3f %10.3f %10.3f %10.3f\n", intensity, base,
                ac, ab, at);
    ix.values.push_back(intensity);
    ic.values.push_back(base);
    io.values.push_back(ac);
    ib.values.push_back(ab);
    it.values.push_back(at);
  }

  if (!opt.out_dir.empty()) {
    const char* dir = opt.out_dir.c_str();
    dump_rows(dir, "faults_frame_corruption.csv", "frame_corrupt_prob",
              corrupt_rows);
    dump_rows(dir, "faults_link_quality.csv", "p_good_to_bad", fade_rows);
    dump_rows(dir, "faults_base_snr.csv", "base_snr_db", snr_rows);
    const std::vector<CsvColumn> ident_cols = {ix, ic, io, ib, it};
    save_csv(opt.out_dir + "/faults_identification.csv", ident_cols);
    dump_variant_legend(opt.out_dir);
  }

  bench::rule();
  bench::note("stop-and-wait ARQ holds goodput near the fault-free line"
              " through 10% frame corruption while the blind seed path"
              " loses whole readings to single-frame holes; under deep"
              " fades the NACK-driven (gamma, FEC) step-up keeps frames"
              " decodable where fixed protection stalls in retries");
  return 0;
}
