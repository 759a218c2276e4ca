// Many-tag scaling sweep: throughput / BER / capture rate vs fleet size.
//
// For each tag count N in 1, 2, 4, … --tags (default 1024), a TagFleet
// of N tags on log-spaced radii contends for excitation slots; the
// capture engine arbitrates every busy slot and small fleets are
// additionally probed at waveform level (N-way superposition + real
// overlay decode of the capture winner).  Runs on the deterministic
// trial engine: the CSV, the metrics JSON, and the manifest's
// deterministic section are byte-identical at any --threads and
// --waveform-cache setting (tests/scripts/scale_tags_determinism.sh
// gates the CSV and the metrics JSON).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "sim/excitation.h"
#include "sim/fleet/scale_experiment.h"
#include "sim/runner/cli.h"
#include "sim/trace_io.h"

using namespace ms;

int main(int argc, char** argv) {
  const CliOptions opt = parse_cli_or_exit(argc, argv);

  fleet::ScaleConfig cfg;
  cfg.excitation = fleet_excitation();
  cfg.tag_counts =
      fleet::default_tag_counts(opt.tags ? opt.tags : 1024);
  if (opt.capture_threshold_db >= 0.0)
    cfg.capture.threshold_db = opt.capture_threshold_db;
  if (opt.trials) cfg.trials = opt.trials;
  cfg.runner.threads = opt.threads;
  if (opt.seed) cfg.runner.master_seed = opt.seed;

  bench::title("scale tags",
               "fleet goodput / capture / collision vs tag count");
  std::printf("  capture threshold: %.1f dB, %zu slots/trial, %zu trials\n",
              cfg.capture.threshold_db, cfg.slots_per_trial, cfg.trials);

  const std::vector<fleet::ScalePoint> points = fleet::run_scale_experiment(cfg);

  bench::rule();
  std::printf("%6s %12s %12s %7s %7s %7s %7s %9s %10s %10s\n", "tags",
              "fleet_bps", "per_tag_bps", "clean", "capt", "coll", "idle",
              "sinr_db", "ber", "probe_ber");
  bench::rule();
  for (const fleet::ScalePoint& p : points) {
    std::printf("%6zu %12.1f %12.2f %7.3f %7.3f %7.3f %7.3f %9.2f %10.3e ",
                p.tags, p.aggregate_goodput_bps, p.per_tag_goodput_bps,
                p.clean_rate, p.capture_rate, p.collision_rate, p.idle_rate,
                p.mean_winner_sinr_db, p.tag_ber);
    if (p.waveform_tag_ber >= 0.0)
      std::printf("%10.3e\n", p.waveform_tag_ber);
    else
      std::printf("%10s\n", "-");
  }
  bench::rule();

  // Ledger: every figure below is computed on the trial engine, so the
  // whole block belongs to the manifest's deterministic section.
  const fleet::ScalePoint& last = points.back();
  bench::record_result("scale.max_tags", static_cast<double>(last.tags));
  bench::record_result("scale.fleet_goodput_bps_at_max",
                       last.aggregate_goodput_bps);
  bench::record_result("scale.capture_rate_at_max", last.capture_rate);
  bench::record_result("scale.collision_rate_at_max", last.collision_rate);
  bench::record_result("scale.tag_ber_at_max", last.tag_ber);
  for (const fleet::ScalePoint& p : points)
    if (p.tags == 1) {
      bench::record_result("scale.per_tag_goodput_bps_solo",
                           p.per_tag_goodput_bps);
      if (p.waveform_tag_ber >= 0.0)
        bench::record_result("scale.waveform_probe_ber_solo",
                             p.waveform_tag_ber);
    }

  if (!opt.out_dir.empty()) {
    std::vector<CsvColumn> cols(10);
    cols[0].name = "tags";
    cols[1].name = "aggregate_goodput_bps";
    cols[2].name = "per_tag_goodput_bps";
    cols[3].name = "clean_rate";
    cols[4].name = "capture_rate";
    cols[5].name = "collision_rate";
    cols[6].name = "idle_rate";
    cols[7].name = "mean_winner_sinr_db";
    cols[8].name = "tag_ber";
    cols[9].name = "waveform_tag_ber";
    for (const fleet::ScalePoint& p : points) {
      cols[0].values.push_back(static_cast<double>(p.tags));
      cols[1].values.push_back(p.aggregate_goodput_bps);
      cols[2].values.push_back(p.per_tag_goodput_bps);
      cols[3].values.push_back(p.clean_rate);
      cols[4].values.push_back(p.capture_rate);
      cols[5].values.push_back(p.collision_rate);
      cols[6].values.push_back(p.idle_rate);
      cols[7].values.push_back(p.mean_winner_sinr_db);
      cols[8].values.push_back(p.tag_ber);
      cols[9].values.push_back(p.waveform_tag_ber);
    }
    save_csv(opt.out_dir + "/scale_tags.csv", cols);
  }
  return finish_bench_output(opt) ? 0 : 1;
}
