#!/usr/bin/env bash
# Determinism gate: experiment outputs must not depend on the thread
# count or on the waveform cache.  Every trial draws from
# Rng::fork(point, trial) streams and merges row-major, and cached
# waveforms are bit-identical to fresh synthesis, so each compared file
# must be byte-identical across runs.  One section per invocation:
#   cache     fig7_ordered at {--threads 1, 8} × {--waveform-cache on,
#             off}: the metrics JSON (whose runner.waveform_cache_*
#             counters pin the hit/miss accounting) and both confusion
#             CSVs;
#   manifest  fig7_ordered's ms.run.v2 manifests at 1 and 8 threads:
#             `obs_report det` renders the deterministic sections equal,
#             the full manifests differ (the thread count is recorded),
#             and `obs_report diff` exits 0 or 4, never 8; and a
#             default-flag fig7_ordered manifest renders the same
#             deterministic section as the committed BENCH_seed.json
#             (Fig 7's six accuracies and the metrics digest);
#   threads   fig7_ordered at --threads 1 and 8: every CSV;
#             robustness_faults at --threads 1 and 8: its five CSVs, the
#             metrics JSON and stdout;
#   workloads robustness_workloads at --threads 1 and 8: the scorecard
#             CSV, the metrics JSON and stdout.
#
# usage: determinism.sh <section> <msbench> <obs_report> <workdir>
set -euo pipefail

baseline="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)/BENCH_seed.json"
section="$1"
msbench="$2"
report="$3"
workdir="$4"

rm -rf "$workdir"
mkdir -p "$workdir"

# run NAME EXPERIMENT FLAGS...: outputs land in $workdir/NAME.
run() {
  local name="$1" id="$2"
  shift 2
  local dir="$workdir/$name"
  mkdir -p "$dir"
  "$msbench" "$id" "$@" --out "$dir" --metrics-out "$dir/metrics.json" \
    --manifest-out "$dir/manifest.json" \
    >"$dir/stdout.txt" 2>"$dir/stderr.txt"
}

# same FILE A B...: FILE must be byte-identical in run A and every run B.
same() {
  local f="$1" base="$2"
  shift 2
  for other in "$@"; do
    if ! cmp -s "$workdir/$base/$f" "$workdir/$other/$f"; then
      echo "FAIL: $f differs between $base and $other" >&2
      diff "$workdir/$base/$f" "$workdir/$other/$f" >&2 || true
      exit 1
    fi
  done
}

# same_csvs A B: run A wrote at least one CSV, and B wrote each the same.
same_csvs() {
  local csvs
  csvs=$(cd "$workdir/$1" && ls ./*.csv)
  [ -n "$csvs" ] || { echo "FAIL: no CSVs in $1" >&2; exit 1; }
  for f in $csvs; do
    same "$f" "$1" "$2"
  done
}

check_cache() {
  for threads in 1 8; do
    for cache in on off; do
      run "fig7_t${threads}_${cache}" fig7_ordered --trials 2 --seed 7 \
        --threads "$threads" --waveform-cache "$cache"
    done
  done
  for f in metrics.json fig7_blind_confusion.csv fig7_ordered_confusion.csv; do
    same "$f" fig7_t1_on fig7_t8_on fig7_t1_off fig7_t8_off
  done
  echo "fig7: metrics + confusion byte-identical across threads 1/8 x cache on/off"
}

check_manifest() {
  run fig7_t1 fig7_ordered --trials 2 --seed 7 --threads 1
  run fig7_t8 fig7_ordered --trials 2 --seed 7 --threads 8
  "$report" det "$workdir/fig7_t1/manifest.json" >"$workdir/t1.det"
  "$report" det "$workdir/fig7_t8/manifest.json" >"$workdir/t8.det"
  if ! cmp -s "$workdir/t1.det" "$workdir/t8.det"; then
    echo "FAIL: deterministic manifest section differs across thread counts" >&2
    diff "$workdir/t1.det" "$workdir/t8.det" >&2 || true
    exit 1
  fi
  # The thread count lives in the nondeterministic section, so it must
  # actually differ between the two manifests — otherwise this gate is
  # comparing a run against itself.
  if cmp -s "$workdir/fig7_t1/manifest.json" "$workdir/fig7_t8/manifest.json"; then
    echo "FAIL: full manifests are identical; --threads was not recorded" >&2
    exit 1
  fi
  local rc=0
  "$report" diff "$workdir/fig7_t1/manifest.json" \
    "$workdir/fig7_t8/manifest.json" --tolerance 1000 \
    >"$workdir/diff.txt" 2>&1 || rc=$?
  case "$rc" in
    0|4) ;;
    *)
      echo "FAIL: obs_report diff exited $rc (want 0 or 4)" >&2
      cat "$workdir/diff.txt" >&2
      exit 1
      ;;
  esac
  echo "fig7: deterministic manifest section byte-identical at 1 and 8 threads"

  run fig7_default fig7_ordered
  "$report" det "$workdir/fig7_default/manifest.json" >"$workdir/default.det"
  "$report" det "$baseline" >"$workdir/baseline.det"
  if ! cmp -s "$workdir/baseline.det" "$workdir/default.det"; then
    echo "FAIL: fig7_ordered at default flags differs from $baseline" \
      "(re-record it with msbench fig7_ordered --manifest-out if the" \
      "change is intended)" >&2
    diff "$workdir/baseline.det" "$workdir/default.det" >&2 || true
    exit 1
  fi
  echo "fig7: default-flag deterministic manifest section equals BENCH_seed.json"
}

check_threads() {
  for threads in 1 8; do
    run "fig7_t${threads}" fig7_ordered --trials 2 --seed 7 --threads "$threads"
    run "faults_t${threads}" robustness_faults --threads "$threads"
  done
  same_csvs fig7_t1 fig7_t8
  same_csvs faults_t1 faults_t8
  for f in metrics.json stdout.txt; do
    same "$f" faults_t1 faults_t8
  done
  echo "fig7: CSVs byte-identical across threads 1/8"
  echo "robustness_faults: CSVs + metrics + stdout byte-identical across threads 1/8"
}

check_workloads() {
  for threads in 1 8; do
    run "workloads_t${threads}" robustness_workloads --trials 3 --seed 11 \
      --threads "$threads"
  done
  for f in workloads_scorecard.csv metrics.json stdout.txt; do
    same "$f" workloads_t1 workloads_t8
  done
  echo "robustness_workloads: scorecard + metrics + stdout byte-identical across threads 1/8"
}

case "$section" in
  cache|manifest|threads|workloads) "check_$section" ;;
  *)
    echo "usage: determinism.sh {cache|manifest|threads|workloads}" \
      "<msbench> <obs_report> <workdir>" >&2
    exit 2
    ;;
esac
