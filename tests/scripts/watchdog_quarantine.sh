#!/usr/bin/env bash
# Watchdog quarantine gate: a deliberately hung trial (MS_HANG_AT_CELL,
# see src/sim/runner/watchdog.h) must be cancelled by the per-trial
# watchdog, reported as a poison cell in --metrics-out, and the sweep
# must still complete and write its figure CSVs — the pool never wedges.
# The quarantine must also produce a flight bundle (--flight-out) whose
# embedded repro command re-executes exactly the quarantined cell.  A
# cell index that does not fit 32 bits must end the run with an error
# naming the variable, not wrap onto another cell.
#
# usage: watchdog_quarantine.sh <bench_fig7_ordered> <workdir>
set -euo pipefail

bench="$1"
workdir="$2"

rm -rf "$workdir"
mkdir -p "$workdir"

MS_HANG_AT_CELL=2,1 "$bench" --trials 2 --threads 2 --seed 7 \
  --trial-deadline-ms 250 --out "$workdir" \
  --metrics-out "$workdir/metrics.json" \
  --flight-out "$workdir/flight" \
  >"$workdir/stdout.txt" 2>"$workdir/stderr.txt"

grep -q '"runner.poison_cells": 1' "$workdir/metrics.json" || {
  echo "FAIL: metrics JSON does not report exactly one poison cell" >&2
  cat "$workdir/metrics.json" >&2
  exit 1
}
grep -q "trial watchdog: cell (point 2, trial 1)" "$workdir/stderr.txt" || {
  echo "FAIL: stderr lacks the watchdog quarantine warning" >&2
  cat "$workdir/stderr.txt" >&2
  exit 1
}
ls "$workdir"/*.csv >/dev/null 2>&1 || {
  echo "FAIL: sweep with a hung cell produced no CSVs" >&2
  exit 1
}

# Flight bundle: exactly one incident, for cell (2,1), carrying a repro
# command that ends in --only-cell 2,1.
bundle=$(ls "$workdir"/flight/flight_*_p2_t1.json 2>/dev/null | head -1)
[ -n "$bundle" ] || {
  echo "FAIL: quarantine produced no flight bundle for cell (2,1)" >&2
  ls "$workdir/flight" >&2 || true
  exit 1
}
grep -q '"reason": "watchdog_quarantine"' "$bundle" || {
  echo "FAIL: flight bundle lacks the watchdog_quarantine reason" >&2
  cat "$bundle" >&2
  exit 1
}
repro=$(sed -n 's/.*"repro": "\(.*\)".*/\1/p' "$bundle")
[ -n "$repro" ] || {
  echo "FAIL: flight bundle has no repro command" >&2
  cat "$bundle" >&2
  exit 1
}
case "$repro" in
  *"--only-cell 2,1") ;;
  *)
    echo "FAIL: repro command does not select cell (2,1): $repro" >&2
    exit 1
    ;;
esac

# The repro command must actually re-execute the quarantined cell: run
# it verbatim (same hang injection) and the single-cell sweep must
# report exactly one poison cell again.
mkdir -p "$workdir/repro"
MS_HANG_AT_CELL=2,1 $repro --out "$workdir/repro" \
  --metrics-out "$workdir/repro/metrics.json" \
  >"$workdir/repro/stdout.txt" 2>"$workdir/repro/stderr.txt" || true
grep -q '"runner.poison_cells": 1' "$workdir/repro/metrics.json" || {
  echo "FAIL: repro run did not re-quarantine cell (2,1)" >&2
  cat "$workdir/repro/metrics.json" >&2
  exit 1
}

# 4294967298 = 2^32 + 2: truncated to 32 bits it would hang cell (2,1).
# The bad value ends the run through an uncaught ms::Error, so bash
# reports the abort on this script's stderr; that line is expected.
mkdir -p "$workdir/wide"
status=0
MS_HANG_AT_CELL=4294967298,1 "$bench" --trials 2 --threads 2 \
  --trial-deadline-ms 250 --out "$workdir/wide" \
  >"$workdir/wide/stdout.txt" 2>"$workdir/wide/stderr.txt" || status=$?
if [ "$status" -eq 0 ]; then
  echo "FAIL: MS_HANG_AT_CELL=4294967298,1 was accepted" >&2
  cat "$workdir/wide/stderr.txt" >&2
  exit 1
fi
grep -q "MS_HANG_AT_CELL" "$workdir/wide/stderr.txt" || {
  echo "FAIL: out-of-range MS_HANG_AT_CELL error does not name the variable" >&2
  cat "$workdir/wide/stderr.txt" >&2
  exit 1
}

echo "watchdog quarantine: hung cell poisoned, sweep completed, repro replays it, wide index rejected"
