// The shared bench/experiment flag parser: valid vocabulary parses,
// everything else is an error (the seed silently ignored unknown flags).
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/runner/cli.h"

namespace ms {
namespace {

std::optional<std::string> parse(std::vector<const char*> argv,
                                 CliOptions& opts) {
  argv.insert(argv.begin(), "bench");
  return parse_cli(static_cast<int>(argv.size()), argv.data(), opts);
}

TEST(Cli, DefaultsWithNoArguments) {
  CliOptions o;
  EXPECT_FALSE(parse({}, o).has_value());
  EXPECT_EQ(o.threads, 0u);
  EXPECT_EQ(o.trials, 0u);
  EXPECT_EQ(o.seed, 0u);
  EXPECT_TRUE(o.out_dir.empty());
  EXPECT_FALSE(o.help);
}

TEST(Cli, ParsesFullVocabulary) {
  CliOptions o;
  EXPECT_FALSE(parse({"--threads", "4", "--trials", "200", "--seed", "99",
                      "--out", "/tmp/results"},
                     o)
                   .has_value());
  EXPECT_EQ(o.threads, 4u);
  EXPECT_EQ(o.trials, 200u);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.out_dir, "/tmp/results");
}

TEST(Cli, RejectsUnknownFlag) {
  CliOptions o;
  const auto err = parse({"--bogus"}, o);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--bogus"), std::string::npos)
      << "error message should name the offending flag: " << *err;
}

TEST(Cli, RejectsUnknownFlagAmongValidOnes) {
  CliOptions o;
  EXPECT_TRUE(parse({"--threads", "2", "--verbose"}, o).has_value());
}

TEST(Cli, RejectsMissingValue) {
  CliOptions o;
  EXPECT_TRUE(parse({"--threads"}, o).has_value());
  EXPECT_TRUE(parse({"--out"}, o).has_value());
}

TEST(Cli, RejectsNonNumericValue) {
  CliOptions o;
  EXPECT_TRUE(parse({"--threads", "many"}, o).has_value());
  EXPECT_TRUE(parse({"--seed", "0x12"}, o).has_value());
  EXPECT_TRUE(parse({"--trials", "12.5"}, o).has_value());
}

TEST(Cli, BadValueNamesFlagAndValue) {
  // A bad value for a known flag must report both the flag and the
  // offending value, not a generic "expects an integer".
  CliOptions o;
  const auto trials = parse({"--trials", "12.5"}, o);
  ASSERT_TRUE(trials.has_value());
  EXPECT_NE(trials->find("--trials"), std::string::npos) << *trials;
  EXPECT_NE(trials->find("12.5"), std::string::npos) << *trials;
  const auto threads = parse({"--threads", "many"}, o);
  ASSERT_TRUE(threads.has_value());
  EXPECT_NE(threads->find("--threads"), std::string::npos) << *threads;
  EXPECT_NE(threads->find("many"), std::string::npos) << *threads;
  const auto cache = parse({"--waveform-cache", "maybe"}, o);
  ASSERT_TRUE(cache.has_value());
  EXPECT_NE(cache->find("--waveform-cache"), std::string::npos) << *cache;
  EXPECT_NE(cache->find("maybe"), std::string::npos) << *cache;
}

TEST(Cli, RejectsZeroThreads) {
  // 0 worker threads cannot run anything; "all cores" is the default
  // you get by omitting the flag, not a magic sentinel on the CLI.  Past
  // 256 the pool would start that many OS threads (or throw on the
  // reservation), so those are bad values too.  parse_cli starts none.
  for (const char* n : {"0", "257", "100000", "18446744073709551615"}) {
    CliOptions o;
    const auto err = parse({"--threads", n}, o);
    ASSERT_TRUE(err.has_value()) << n;
    EXPECT_NE(err->find("--threads"), std::string::npos) << *err;
    EXPECT_NE(err->find(std::string("'") + n + "'"), std::string::npos)
        << *err;
    EXPECT_EQ(o.threads, 0u) << n;
  }
  CliOptions o;
  EXPECT_FALSE(parse({"--threads", "256"}, o).has_value());
  EXPECT_EQ(o.threads, 256u);
}

TEST(Cli, MissingValueNamesFlag) {
  CliOptions o;
  const auto err = parse({"--trials"}, o);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--trials"), std::string::npos) << *err;
}

TEST(Cli, RejectsAnyPositional) {
  // The experiment id is msbench's only positional; the flags after it
  // take none (a bare OUTDIR no longer means --out).
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"outdir"},
        std::vector<const char*>{"--threads", "2", "outdir"}}) {
    CliOptions o;
    const auto err = parse(args, o);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, "unexpected argument: outdir");
    EXPECT_TRUE(o.out_dir.empty());
  }
}

TEST(Cli, DeclinedFlagsNameTheCommand) {
  // An experiment with fixed trial counts or seeds rejects the flag it
  // would ignore, even at a value that means "the default".
  const char* trials[] = {"msbench fig13_los", "--trials", "2"};
  const char* seed[] = {"msbench fig13_los", "--seed", "0"};
  CliOptions o;
  auto err = parse_cli(3, trials, o, {.trials = false, .seed = true});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "msbench fig13_los does not take --trials: its trial "
                  "counts are fixed");
  EXPECT_FALSE(parse_cli(3, seed, o, {.trials = false, .seed = true})
                   .has_value());
  err = parse_cli(3, seed, o, {.trials = true, .seed = false});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "msbench fig13_los does not take --seed: its seeds are "
                  "fixed");
  EXPECT_FALSE(parse_cli(3, trials, o, {.trials = true, .seed = false})
                   .has_value());
}

TEST(Cli, DeclinedThreadsNamesTheCommand) {
  // A row that runs no trial engine rejects --threads, and its usage
  // does not offer the flag.
  const char* threads[] = {"msbench fig13_los", "--threads", "8"};
  CliOptions o;
  const auto err = parse_cli(3, threads, o, {.threads = false});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "msbench fig13_los does not take --threads: its thread "
                  "counts are fixed");
  EXPECT_EQ(o.threads, 0u);
  EXPECT_FALSE(parse_cli(3, threads, o, {}).has_value());
  EXPECT_EQ(o.threads, 8u);
  const std::string usage = cli_usage(
      "msbench fig13_los", {.threads = false, .trials = false, .seed = false});
  EXPECT_EQ(usage.find("--threads"), std::string::npos);
  EXPECT_EQ(usage.rfind("usage: msbench fig13_los [--out DIR]\n", 0), 0u);
}

TEST(Cli, HelpFlag) {
  CliOptions o;
  EXPECT_FALSE(parse({"--help"}, o).has_value());
  EXPECT_TRUE(o.help);
}

TEST(Cli, UsageNamesEveryFlag) {
  const std::string usage = cli_usage("bench_x");
  for (const char* flag :
       {"--threads", "--trials", "--seed", "--out", "--metrics-out",
        "--trace-out", "--waveform-cache", "--help"})
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  EXPECT_NE(usage.find("bench_x"), std::string::npos);
}

TEST(Cli, UsageLeavesOutDeclinedFlags) {
  // A command that declines --trials and --seed must not offer them
  // under the error that says it does not take them.
  const std::string usage =
      cli_usage("msbench fig13_los", {.trials = false, .seed = false});
  EXPECT_EQ(usage.find("--trials"), std::string::npos);
  EXPECT_EQ(usage.find("--seed"), std::string::npos);
  EXPECT_EQ(usage.rfind("usage: msbench fig13_los [--threads N] [--out DIR]\n",
                        0),
            0u);
  for (const char* flag : {"--threads", "--out", "--metrics-out",
                           "--trace-out", "--waveform-cache",
                           "--manifest-out", "--help"})
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  // Declining one keeps the other.
  const std::string seeded =
      cli_usage("msbench fig18_diversity", {.trials = false, .seed = true});
  EXPECT_EQ(seeded.find("--trials"), std::string::npos);
  EXPECT_NE(seeded.find("[--seed S]"), std::string::npos);
}

TEST(Cli, WaveformCacheFlag) {
  CliOptions o;
  EXPECT_FALSE(parse({}, o).has_value());
  EXPECT_TRUE(o.waveform_cache);  // default on
  EXPECT_FALSE(parse({"--waveform-cache", "off"}, o).has_value());
  EXPECT_FALSE(o.waveform_cache);
  EXPECT_FALSE(parse({"--waveform-cache", "on"}, o).has_value());
  EXPECT_TRUE(o.waveform_cache);
}

TEST(Cli, DeclinedWaveformCacheNamesTheCommand) {
  // A row that synthesizes no identification waveform never reads the
  // cache, so it rejects --waveform-cache and its usage leaves it out.
  const char* cache[] = {"msbench fig13_los", "--waveform-cache", "off"};
  CliOptions o;
  const auto err = parse_cli(3, cache, o, {.waveform_cache = false});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "msbench fig13_los does not take --waveform-cache: it "
                  "caches no waveforms");
  EXPECT_TRUE(o.waveform_cache);
  EXPECT_FALSE(parse_cli(3, cache, o, {}).has_value());
  EXPECT_FALSE(o.waveform_cache);
  const std::string usage =
      cli_usage("msbench fig13_los", {.waveform_cache = false});
  EXPECT_EQ(usage.find("--waveform-cache"), std::string::npos);
  EXPECT_NE(usage.find("       [--metrics-out FILE] [--trace-out FILE]\n"),
            std::string::npos);
}

TEST(Cli, RejectsBadWaveformCacheValue) {
  CliOptions o;
  EXPECT_TRUE(parse({"--waveform-cache"}, o).has_value());
  EXPECT_TRUE(parse({"--waveform-cache", "maybe"}, o).has_value());
  EXPECT_TRUE(parse({"--waveform-cache", "1"}, o).has_value());
}

TEST(Cli, ParsesTelemetryOutputFlags) {
  CliOptions o;
  EXPECT_FALSE(parse({"--metrics-out", "m.json", "--trace-out", "t.jsonl"}, o)
                   .has_value());
  EXPECT_EQ(o.metrics_out, "m.json");
  EXPECT_EQ(o.trace_out, "t.jsonl");
}

TEST(Cli, TelemetryOutputFlagsDefaultEmpty) {
  CliOptions o;
  EXPECT_FALSE(parse({}, o).has_value());
  EXPECT_TRUE(o.metrics_out.empty());
  EXPECT_TRUE(o.trace_out.empty());
}

TEST(Cli, RejectsMissingTelemetryValues) {
  CliOptions o;
  EXPECT_TRUE(parse({"--metrics-out"}, o).has_value());
  EXPECT_TRUE(parse({"--trace-out"}, o).has_value());
}

TEST(Cli, RemovedFlagsAreUnknown) {
  // The checkpoint journal, resume loader and heartbeat are gone, and so
  // are the switch to the scalar PHY oracles, the per-trial deadline,
  // the flight recorder, the single-cell filter and the many-tag sweep's
  // tag count and capture margin; their flags must fail
  // like any other unknown flag, not be skipped, and the usage text must
  // not offer them.  The names are spelled in pieces so that a search
  // for the deleted flags turns up no live use of them.
  const std::string dash = "--";
  const std::string usage = cli_usage("bench_x");
  const std::pair<std::string, const char*> removed[] = {
      {dash + "checkpoint" + "-out", "8"},
      {dash + "checkpoint" + "-interval", "8"},
      {dash + "resume", "8"},
      {dash + "heartbeat" + "-out", "8"},
      {dash + "heartbeat" + "-interval-ms", "8"},
      {dash + "fast" + "-path", "8"},
      {dash + "trial" + "-deadline-ms", "5"},
      {dash + "flight" + "-out", "d"},
      {dash + "only" + "-cell", "0,0"},
      {dash + "tags", "256"},
      {dash + "capture" + "-threshold-db", "3.5"}};
  for (const auto& [flag, value] : removed) {
    CliOptions o;
    const auto err = parse({flag.c_str(), value}, o);
    ASSERT_TRUE(err.has_value()) << flag;
    EXPECT_EQ(*err, "unknown flag: " + flag);
    EXPECT_EQ(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(Cli, ParsesObservabilityFlags) {
  CliOptions o;
  EXPECT_FALSE(parse({"--manifest-out", "run.json"}, o).has_value());
  EXPECT_EQ(o.manifest_out, "run.json");
}

TEST(Cli, ObservabilityFlagsDefaultOff) {
  CliOptions o;
  EXPECT_FALSE(parse({}, o).has_value());
  EXPECT_TRUE(o.manifest_out.empty());
}

TEST(Cli, RejectsBadObservabilityValues) {
  CliOptions o;
  EXPECT_TRUE(parse({"--manifest-out"}, o).has_value());
}

TEST(Cli, UsageNamesObservabilityFlags) {
  EXPECT_NE(cli_usage("bench_x").find("--manifest-out"), std::string::npos);
}

TEST(Cli, OrExitCreatesMissingOutDirectories) {
  // parse_cli_or_exit creates --out and the parents of the telemetry
  // output files instead of failing later at dump time.
  const std::string base =
      std::string(::testing::TempDir()) + "/cli_test_out";
  std::filesystem::remove_all(base);
  const std::string out = base + "/nested/run1";
  const std::string metrics = base + "/telemetry/metrics.json";
  const char* argv[] = {"bench",          "--out",
                        out.c_str(),      "--metrics-out",
                        metrics.c_str()};
  const CliOptions o = parse_cli_or_exit(5, argv, "bench_x");
  EXPECT_EQ(o.out_dir, out);
  EXPECT_TRUE(std::filesystem::is_directory(out));
  EXPECT_TRUE(std::filesystem::is_directory(base + "/telemetry"));
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace ms
