#!/usr/bin/env bash
# obs_report exit-code contract: crafted ms.run.v2 fixtures drive every
# verdict the CI branches on —
#   0  identical manifests
#   4  wall_s moved but stayed inside --tolerance, or fell
#   8  (a) deterministic sections differ, (b) wall_s rose by more than
#      the tolerance
#   2  usage errors, incomparable identities (different seed) and a
#      manifest of the retired ms.run.v1 schema
# plus the direction convention: wall_s is cost, so a speed-up beyond
# the tolerance is not a regression.
#
# usage: obs_report_exitcodes.sh <obs_report> <workdir>
set -euo pipefail

report="$1"
workdir="$2"

rm -rf "$workdir"
mkdir -p "$workdir"

# manifest <path> <seed> <result> <wall_s>
manifest() {
  cat >"$1" <<EOF
{
  "schema": "ms.run.v2",
  "deterministic": {
    "program": "bench_fixture",
    "config_hash": "00000000deadbeef",
    "seed": $2,
    "trials": 2,
    "metrics_digest": "cbf29ce484222325",
    "results": {
      "fixture.accuracy": $3
    }
  },
  "nondeterministic": {
    "git_sha": "abc123def456",
    "threads": 2,
    "wall_s": $4
  }
}
EOF
}

manifest "$workdir/base.json"       7 0.95 10.0
manifest "$workdir/same.json"       7 0.95 10.0
manifest "$workdir/slower_ok.json"  7 0.95 10.4   # +4% wall_s
manifest "$workdir/wall_bad.json"   7 0.95 13.0   # +30% wall_s
manifest "$workdir/faster.json"     7 0.95  5.0   # big improvement
manifest "$workdir/det_break.json"  7 0.90 10.0   # result moved
manifest "$workdir/other_seed.json" 9 0.95 10.0   # different sweep
# base.json in the retired ms.run.v1 layout, deadline key included.
sed -e 's/"ms\.run\.v2"/"ms.run.v1"/' \
    -e 's/^    "trials": 2,$/&\n    "trial_deadline_ms": 0,/' \
    "$workdir/base.json" >"$workdir/v1.json"

check() {
  local want="$1" label="$2"
  shift 2
  local rc=0
  "$report" "$@" >"$workdir/last_out.txt" 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: $label: exit $rc, want $want" >&2
    echo "  command: obs_report $*" >&2
    cat "$workdir/last_out.txt" >&2
    exit 1
  fi
}

check 0 "identical manifests"  diff "$workdir/base.json" "$workdir/same.json"
check 4 "within tolerance"     diff "$workdir/base.json" "$workdir/slower_ok.json"
check 8 "wall-clock regression" diff "$workdir/base.json" "$workdir/wall_bad.json"
check 4 "improvement is not a regression" \
  diff "$workdir/base.json" "$workdir/faster.json"
check 8 "determinism break"    diff "$workdir/base.json" "$workdir/det_break.json"
check 2 "incomparable seeds"   diff "$workdir/base.json" "$workdir/other_seed.json"
check 2 "missing operand"      diff "$workdir/base.json"
check 2 "bad tolerance"        diff "$workdir/base.json" "$workdir/same.json" \
  --tolerance nope
check 2 "nonexistent file"     diff "$workdir/base.json" "$workdir/missing.json"
check 2 "no subcommand"

# A tight tolerance flips the within-tolerance pair to regressed.
check 8 "tolerance is honored" diff "$workdir/base.json" \
  "$workdir/slower_ok.json" --tolerance 1

# A v1 manifest is refused, and the message names its schema.
check 2 "v1 manifest"          diff "$workdir/v1.json" "$workdir/base.json"
grep -q 'unknown schema "ms.run.v1"' "$workdir/last_out.txt" || {
  echo "FAIL: the v1 refusal does not name the schema" >&2
  cat "$workdir/last_out.txt" >&2
  exit 1
}

# det: canonical rendering is stable and seed-bearing.
"$report" det "$workdir/base.json" >"$workdir/det_a.txt"
"$report" det "$workdir/same.json" >"$workdir/det_b.txt"
cmp -s "$workdir/det_a.txt" "$workdir/det_b.txt" || {
  echo "FAIL: det output differs for identical manifests" >&2
  exit 1
}
grep -q '"seed": 7' "$workdir/det_a.txt" || {
  echo "FAIL: det output lacks the seed" >&2
  cat "$workdir/det_a.txt" >&2
  exit 1
}

echo "obs_report exit codes: 0/4/8/2 verdicts all behave"
