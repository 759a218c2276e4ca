#!/usr/bin/env bash
# Full CI sweep: Release build + the four labeled ctest suites (unit,
# property, integration, golden) — the property label includes the
# bitpack equivalence and PHY kernel-vs-oracle differential suites,
# and the unit label the workload/degradation/
# time-varying-channel suites and the check that every src/ module is
# reached from a program, so all of them get an ASan+UBSan pass below
# for free — then the bench-smoke label (a smoke run of every msbench
# experiment, the driver's usage errors, and the determinism gate: the
# waveform cache, the workload scorecard, the fig7 CSVs, and
# robustness_faults' CSVs, metrics JSON and stdout byte-identical at
# threads 1 and 8, and fig7's default-flag manifest against
# BENCH_seed.json), the function-reach gate (two -O0 --gc-sections
# trees, build-reach and build-reach-perfbench: every out-of-line src/
# function must be linked into a production program), bench_micro's
# calibration-search, identifier-score, channel (noise, multipath,
# envelope), front-end (FIR, rf_envelope), overlay-sync and
# tag-frame-codec benchmarks and its telemetry-overhead gate, a
# warn-only wall-time diff of a fresh fig7_ordered manifest against the
# committed BENCH_seed.json, then the
# same four suites under ASan+UBSan (-DMS_SANITIZE=ON,
# which also bounds-checks the standard containers with
# _GLIBCXX_ASSERTIONS; the integration label runs the threaded engine's
# test_runner there), the threaded engine and the perfbench harness
# under ThreadSanitizer, and finally the golden and property suites built
# for x86-64-v3 (FMA/AVX2) and for -march=native (the host's own ISA,
# AVX-512 where it has it), where bit-exactness rests on
# -ffp-contract=off.  Exits nonzero on the first failing step.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc)"
labels=(unit property integration golden)

run_suites() {
  local build_dir="$1"
  for label in "${labels[@]}"; do
    echo "==> ctest -L ${label} (${build_dir##*/})"
    ctest --test-dir "${build_dir}" -L "${label}" --output-on-failure -j"${jobs}"
  done
}

echo "=== Release build ==="
cmake -B "${repo_root}/build" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${repo_root}/build" -j"${jobs}"
run_suites "${repo_root}/build"
echo "==> ctest -L bench-smoke (Release only)"
ctest --test-dir "${repo_root}/build" -L bench-smoke --output-on-failure -j"${jobs}"

echo "==> src function reach (build-reach, build-reach-perfbench)"
# Every out-of-line function in src/ must be linked into msbench,
# bench_micro, an example or perfbench_harness, except the few that
# tests/scripts/src_functions_reached.sh lists (a list that can only
# shrink).  It builds its own -O0 trees, so it stays out of tier-1; it
# runs here, before the sanitizer builds, so dead code fails early.
bash "${repo_root}/tests/scripts/src_functions_reached.sh" "${repo_root}"

echo "==> bench-perf smoke (Release only)"
# bench_micro, cut to the calibration-search, identifier-scoring,
# identification channel and front-end, overlay-sync and tag-frame-codec
# benchmarks; after them it exits 1 if disabled telemetry adds >= 3 % to
# the identifier scoring loop.
"${repo_root}/build/bench/bench_micro" \
    --benchmark_filter='BM_CalibrationSearch|BM_IdentifierScore|BM_AddNoisePower|BM_MultipathApply|BM_Envelope|BM_FirFilterComplex|BM_RfEnvelope|BM_OverlaySync|BM_TagFrameCodec'

echo "==> cross-run regression report (warn-only)"
# A fresh default-flag fig7_ordered manifest against the committed
# BENCH_seed.json.  The manifest_determinism ctest already fails on a
# deterministic difference, so this step only reports the wall time:
# warn-only, because CI hardware timing noise is not a regression.
perf_dir="${repo_root}/build/bench-perf"
mkdir -p "${perf_dir}"
"${repo_root}/build/bench/msbench" fig7_ordered \
    --manifest-out "${perf_dir}/fig7_manifest.json" >/dev/null
diff_rc=0
"${repo_root}/build/tools/obs_report" diff \
    "${repo_root}/BENCH_seed.json" "${perf_dir}/fig7_manifest.json" \
    --tolerance 50 || diff_rc=$?
case "${diff_rc}" in
  0|4) echo "obs_report: fig7 manifest consistent with BENCH_seed.json" ;;
  *)   echo "WARNING: obs_report diff vs BENCH_seed.json exited ${diff_rc}" \
           "(warn-only; refresh the baseline if the change is intentional)" ;;
esac

echo "=== ASan+UBSan build ==="
cmake -B "${repo_root}/build-asan" -S "${repo_root}" -DMS_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${repo_root}/build-asan" -j"${jobs}"
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1"
run_suites "${repo_root}/build-asan"

echo "=== ThreadSanitizer build ==="
# What the trial engine's workers share, under TSan: the integration
# label (the runner at several thread counts), test_sim, test_zigbee
# (ZigbeePhy builds its candidate bank once, under std::call_once), and
# one perfbench harness run, whose overlay_decode 2-thread pass shares
# each OverlayReceiver between both workers.  perfbench/ is built from
# its own CMake project, unchanged, with the same flags.  halt_on_error
# makes the first report fail the step.
tsan_flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
            -DCMAKE_CXX_FLAGS=-fsanitize=thread
            -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread)
cmake -B "${repo_root}/build-tsan" -S "${repo_root}" "${tsan_flags[@]}"
cmake --build "${repo_root}/build-tsan" -j"${jobs}" --target test_runner \
    test_obs_determinism test_integration test_sim test_zigbee
export TSAN_OPTIONS="halt_on_error=1"
echo "==> ctest -L integration (build-tsan)"
ctest --test-dir "${repo_root}/build-tsan" -L integration --output-on-failure -j"${jobs}"
for suite in test_sim test_zigbee; do
  echo "==> ${suite} (build-tsan)"
  "${repo_root}/build-tsan/tests/${suite}" --gtest_brief=1
done
echo "==> perfbench overlay_decode (build-tsan-perfbench)"
cmake -B "${repo_root}/build-tsan-perfbench" -S "${repo_root}/perfbench" \
      "${tsan_flags[@]}"
cmake --build "${repo_root}/build-tsan-perfbench" -j"${jobs}"
"${repo_root}/build-tsan-perfbench/perfbench_harness" --workload overlay_decode \
    --seed 0 --seconds 1 --trace 0 >/dev/null
unset TSAN_OPTIONS

echo "=== x86-64-v3 build ==="
# The fast kernels and their scalar oracles must agree bit for bit on an
# FMA target too: the golden fixtures, and the property label, which
# holds the differential suites.
cmake -B "${repo_root}/build-v3" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-march=x86-64-v3
cmake --build "${repo_root}/build-v3" -j"${jobs}"
for label in golden property; do
  echo "==> ctest -L ${label} (build-v3)"
  ctest --test-dir "${repo_root}/build-v3" -L "${label}" --output-on-failure -j"${jobs}"
done

echo "=== -march=native build ==="
# The same two suites for whatever ISA this host has, so a kernel that
# is bit-exact only up to AVX2 shows here.
cmake -B "${repo_root}/build-native" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-march=native
cmake --build "${repo_root}/build-native" -j"${jobs}"
for label in golden property; do
  echo "==> ctest -L ${label} (build-native)"
  ctest --test-dir "${repo_root}/build-native" -L "${label}" --output-on-failure -j"${jobs}"
done

echo "CI: all suites green (Release + function reach + sanitizers + TSan +" \
     "x86-64-v3 + native)"
