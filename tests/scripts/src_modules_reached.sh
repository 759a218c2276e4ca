#!/usr/bin/env bash
# Every module in src/ must have a caller outside the tests.  Walks the
# `#include "…"` graph from every .cpp in bench/, examples/, perfbench/
# and tools/, following each reached header to the .cpp beside it, and
# fails if a src/ module (a path under src/ without its .h/.cpp
# extension) is never reached.  A module that only tests call belongs
# in the test-support library (tests/support/), not in src/.
#
# KNOWN_UNREACHED lists the modules still waiting for a production
# caller.  The check also fails when one of them is reached or deleted,
# so that list can only shrink.
#
# usage: src_modules_reached.sh <repo root>
set -euo pipefail

KNOWN_UNREACHED=(
  core/overlay/freq_shift
  phy/ofdm/sync
)

cd "$1"

declare -A seen=()     # files queued for the walk
declare -A reached=()  # src/ modules reached
queue=()
enqueue() {
  if [[ -f "$1" && -z "${seen[$1]:-}" ]]; then
    seen[$1]=1
    queue+=("$1")
  fi
}

while IFS= read -r f; do enqueue "$f"; done \
  < <(find bench examples perfbench tools -name '*.cpp' | sort)

# An include resolves against src/ first, then the including file's own
# directory (bench_util.h, workloads.h, json_mini.h).  Includes that
# resolve to neither, such as the test-only oracles.h, are not followed.
for ((i = 0; i < ${#queue[@]}; ++i)); do
  f="${queue[i]}"
  while IFS= read -r inc; do
    for cand in "src/${inc}" "$(dirname "$f")/${inc}"; do
      [[ -f "${cand}" ]] || continue
      enqueue "${cand}"
      enqueue "${cand%.*}.cpp"
      if [[ "${cand}" == src/* ]]; then
        m="${cand#src/}"
        reached[${m%.*}]=1
      fi
      break
    done
  done < <(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$f")
done

declare -A known=()
for m in "${KNOWN_UNREACHED[@]}"; do known[$m]=1; done

fail=0
modules=0
while IFS= read -r m; do
  modules=$((modules + 1))
  if [[ -z "${reached[$m]:-}" && -z "${known[$m]:-}" ]]; then
    echo "FAIL: src/${m} is reached by no program in bench/, examples/," \
         "perfbench/ or tools/; give it a caller or move it to tests/support/"
    fail=1
  fi
done < <(find src \( -name '*.h' -o -name '*.cpp' \) | sed 's|^src/||; s|\.[^.]*$||' | sort -u)

for m in "${KNOWN_UNREACHED[@]}"; do
  if [[ -n "${reached[$m]:-}" ]] || ! compgen -G "src/${m}.*" > /dev/null; then
    echo "FAIL: src/${m} is listed in KNOWN_UNREACHED but is now reached" \
         "or gone; drop it from the list in $0"
    fail=1
  fi
done

if ((fail)); then exit 1; fi
echo "src_modules_reached: ${modules} modules; every one is reached except" \
     "the ${#KNOWN_UNREACHED[@]} known: ${KNOWN_UNREACHED[*]}"
