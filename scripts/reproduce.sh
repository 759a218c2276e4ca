#!/usr/bin/env bash
# Rebuild everything, run the full test suite, and regenerate every paper
# table/figure plus the ablations.  Outputs land in ./reproduction/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

mkdir -p reproduction
ctest --test-dir build 2>&1 | tee reproduction/test_output.txt

: > reproduction/bench_output.txt
# Every experiment msbench --help lists, one process each.
for id in $(build/bench/msbench --help | awk 'on { print $1 } /^experiments/ { on = 1 }'); do
  build/bench/msbench "$id" 2>&1 | tee -a reproduction/bench_output.txt
done

echo
echo "done: reproduction/test_output.txt, reproduction/bench_output.txt"
