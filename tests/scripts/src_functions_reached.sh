#!/usr/bin/env bash
# Every out-of-line function in src/ must be linked into a production
# program: msbench, bench_micro, the seven examples or perfbench_harness.
#
# Builds those programs in two trees, build-reach (the top-level project)
# and build-reach-perfbench (perfbench/, unchanged), at -O0 -fno-inline
# -ffunction-sections and links them with --gc-sections, so that each
# program keeps exactly the functions its call graph reaches.  The build
# type stays RelWithDebInfo with NDEBUG, so no debug-only path counts.
# Then it compares the strong text symbols (nm T/t) of the src/ archives
# whose demangled name starts with `ms::` against the symbols of the
# programs, and names each function that no program links, with the
# file:line that `nm -l` reports.  Functions defined in headers are
# emitted weak (W) and are not judged.  A function that only tests call
# belongs in the test-support library (tests/support/), not in src/.
#
# KNOWN_UNREACHED lists functions still waiting for a production caller,
# by demangled name without parameters, each with a reason tag:
#   item2  one of the two modules that src_modules_reached.sh also
#          lists (the frequency shift and OFDM sync), waiting for the
#          single-receiver chain to call them;
#   seam   a test's way to reset or read back process-global state,
#          which goes once the runs pass an explicit context.
# The check also fails when a listed function is reached or deleted, so
# the list can only shrink.
#
# usage: src_functions_reached.sh <repo root>
set -euo pipefail

KNOWN_UNREACHED=(
  "item2 ms::tag_square_shift"
  "item2 ms::receiver_downmix"
  "item2 ms::estimate_offset_hz"
  "item2 ms::frequency_shift"
  "item2 ms::ofdm_synchronize"
  "item2 ms::ofdm_correct_cfo"
  "seam ms::obs::aggregate"
  "seam ms::obs::reset_aggregate"
  "seam ms::obs::TelemetryShard::clear"
  "seam ms::obs::reset_profile"
  "seam ms::obs::ledger::reset"
  "seam ms::obs::ledger::results"
  "seam ms::obs::ledger::run_info"
  "seam ms::obs::ledger::write_deterministic_json"
  "seam ms::WaveformCache::entries"
  "seam ms::WaveformCache::reuse_enabled"
)

PROGRAMS=(
  build-reach/bench/msbench
  build-reach/bench/bench_micro
  build-reach/examples/quickstart
  build-reach/examples/smart_bracelet
  build-reach/examples/multiprotocol_sniffer
  build-reach/examples/range_survey
  build-reach/examples/streaming_monitor
  build-reach/examples/capture_decode
  build-reach/examples/multi_tag_demo
  build-reach-perfbench/perfbench_harness
)

cd "$1"
jobs="$(nproc)"

flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
       "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O0 -g -DNDEBUG"
       "-DCMAKE_CXX_FLAGS=-fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
targets=()
for p in "${PROGRAMS[@]}"; do
  [[ "${p}" == build-reach/* ]] && targets+=("${p##*/}")
done
cmake -B build-reach -S . "${flags[@]}" > /dev/null
cmake --build build-reach -j"${jobs}" --target "${targets[@]}" > /dev/null
cmake -B build-reach-perfbench -S perfbench "${flags[@]}" > /dev/null
cmake --build build-reach-perfbench -j"${jobs}" --target perfbench_harness \
    > /dev/null

fail=0
for p in "${PROGRAMS[@]}"; do
  if [[ ! -x "${p}" ]]; then
    echo "FAIL: program ${p} was not built; the gate judges every program" \
         "in PROGRAMS, so rename it there too"
    fail=1
  fi
done
if ((fail)); then exit 1; fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Every symbol any program defines, by mangled name.
for p in "${PROGRAMS[@]}"; do nm --defined-only "${p}"; done \
  | awk 'NF >= 3 { print $3 }' | sort -u > "${tmp}/linked"

# The src/ archives' strong text symbols: mangled name, then file:line.
mapfile -t archives < <(find build-reach/src -name 'libms_*.a' | sort)
nm --defined-only -l "${archives[@]}" \
  | awk -F'\t' '{ split($1, f, " ") }
                f[2] == "T" || f[2] == "t" { print f[3] "\t" $2 }' \
  | sort -u -t$'\t' -k1,1 > "${tmp}/defined"
# Keep the ms:: ones, each with file:line, its full demangled name and
# the name without parameters or ABI tags that KNOWN_UNREACHED holds.
cut -f1 "${tmp}/defined" | c++filt > "${tmp}/full"
cut -f1 "${tmp}/defined" | c++filt -p | sed 's/\[abi:[^]]*\]//g' \
  > "${tmp}/short"
paste "${tmp}/defined" "${tmp}/full" "${tmp}/short" \
  | awk -F'\t' '$3 ~ /^ms::/' > "${tmp}/judged"
# Judge by demangled name: a constructor's complete- and base-object
# symbols share one, and either being linked reaches it.
functions="$(cut -f3 "${tmp}/judged" | sort -u | wc -l)"
awk -F'\t' 'FNR == 1 { ++pass }
            pass == 1 { linked[$1] = 1; next }
            pass == 2 { if ($1 in linked) reached[$3] = 1; next }
            !($3 in reached) && !seen[$3]++ {
              print ($2 == "" ? "no line info" : $2) "\t" $3 "\t" $4 }' \
    "${tmp}/linked" "${tmp}/judged" "${tmp}/judged" > "${tmp}/unreached"

declare -A known=()
for entry in "${KNOWN_UNREACHED[@]}"; do known[${entry#* }]=1; done

declare -A known_hit=()
unreached=0
while IFS=$'\t' read -r loc full short; do
  unreached=$((unreached + 1))
  if [[ -n "${known[${short}]:-}" ]]; then
    known_hit[${short}]=1
    continue
  fi
  echo "FAIL: ${full} (${loc#"${PWD}/"}) is linked into no program;" \
       "give it a caller, move it to tests/support/ or delete it"
  fail=1
done < "${tmp}/unreached"

for entry in "${KNOWN_UNREACHED[@]}"; do
  name="${entry#* }"
  if [[ -z "${known_hit[${name}]:-}" ]]; then
    echo "FAIL: ${name} is listed in KNOWN_UNREACHED (${entry%% *}) but is" \
         "now reached or gone; drop it from the list in $0"
    fail=1
  fi
done

if ((fail)); then exit 1; fi
echo "src_functions_reached: ${functions} ms:: functions in the src/" \
     "archives; the ${unreached} that no program links all fall under the" \
     "${#KNOWN_UNREACHED[@]} known names"
