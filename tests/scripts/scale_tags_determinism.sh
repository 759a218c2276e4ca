#!/usr/bin/env bash
# Determinism gate for the many-tag scale sweep (ISSUE 10 satellite b).
#
# Runs bench_scale_tags four ways — {--threads 1, --threads 8} ×
# {--waveform-cache on, off} — with a fixed seed, tag sweep, and trial
# count, then byte-compares scale_tags.csv and the metrics JSON (which
# embeds the per-tag fleet.* counters and histograms) across all four
# runs.  This is the end-to-end proof that the fleet world model keeps
# the trial engine's contracts: per-tag Rng sub-streams independent of
# scheduling, arbitration pure in the contender set, superposition
# probes keyed on drawn content.
#
# usage: scale_tags_determinism.sh <bench_scale_tags binary> <workdir>
set -euo pipefail

bench="$1"
workdir="$2"

rm -rf "$workdir"
mkdir -p "$workdir"

# Small sweep, big enough to exercise the waveform probe (N <= 8) and
# the analytic-only path (N = 16, 32) across several grid cells.
common=(--trials 3 --seed 7 --tags 32 --capture-threshold-db 6)

run() {
  local dir="$1" threads="$2" cache="$3"
  mkdir -p "$dir"
  "$bench" "${common[@]}" --threads "$threads" --waveform-cache "$cache" \
    --out "$dir" --metrics-out "$dir/metrics.json" \
    >"$dir/stdout.txt" 2>"$dir/stderr.txt"
}

run "$workdir/t1_on" 1 on
run "$workdir/t8_on" 8 on
run "$workdir/t1_off" 1 off
run "$workdir/t8_off" 8 off

for f in scale_tags.csv metrics.json; do
  for variant in t8_on t1_off t8_off; do
    if ! cmp -s "$workdir/t1_on/$f" "$workdir/$variant/$f"; then
      echo "FAIL: $f differs between t1_on and $variant" >&2
      diff "$workdir/t1_on/$f" "$workdir/$variant/$f" >&2 || true
      exit 1
    fi
  done
done
echo "scale tags: CSV + metrics byte-identical across threads x cache"

