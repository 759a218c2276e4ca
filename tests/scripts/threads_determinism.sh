#!/usr/bin/env bash
# Thread-count determinism gate.
#
# Runs bench_fig7_ordered and bench_fig13_los at --threads 1 and at
# --threads 8, with a fixed seed and trial count, then byte-compares
# every output CSV across the two runs.  fig13 (LoS range) gets no other
# thread-invariance check; fig7 also has the cache and manifest gates.
# The arena-backed sample path and the shared lazily built PHY banks must
# introduce no thread-count dependence.
#
# usage: threads_determinism.sh <bench_fig7_ordered> <bench_fig13_los> <workdir>
set -euo pipefail

fig7="$1"
fig13="$2"
workdir="$3"

rm -rf "$workdir"
mkdir -p "$workdir"

run() {
  local bench="$1" name="$2" threads="$3"
  local dir="$workdir/$name"
  mkdir -p "$dir"
  "$bench" --trials 2 --seed 7 --threads "$threads" \
    --out "$dir" >"$dir/stdout.txt" 2>"$dir/stderr.txt"
}

for bench_name in fig7 fig13; do
  bench_bin="$fig7"
  [ "$bench_name" = fig13 ] && bench_bin="$fig13"
  run "$bench_bin" "${bench_name}_t1" 1
  run "$bench_bin" "${bench_name}_t8" 8

  baseline="$workdir/${bench_name}_t1"
  csvs=$(cd "$baseline" && ls ./*.csv)
  [ -n "$csvs" ] || { echo "FAIL: no CSVs from $bench_name" >&2; exit 1; }
  for f in $csvs; do
    if ! cmp -s "$baseline/$f" "$workdir/${bench_name}_t8/$f"; then
      echo "FAIL: $bench_name $f differs between threads 1 and 8" >&2
      diff "$baseline/$f" "$workdir/${bench_name}_t8/$f" >&2 || true
      exit 1
    fi
  done
  echo "$bench_name: CSVs byte-identical across threads 1/8"
done

echo "threads determinism: all figure CSVs invariant to thread count"
