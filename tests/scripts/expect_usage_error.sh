#!/usr/bin/env bash
# Passes when a command is rejected as a usage error: it exits 2 and its
# stderr contains PATTERN (a fixed string naming what was rejected).
#
# usage: expect_usage_error.sh <pattern> <command> [args...]
set -uo pipefail

pattern="$1"
shift

err="$("$@" 2>&1 >/dev/null)"
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: '$*' exited $rc (want 2)" >&2
  printf '%s\n' "$err" >&2
  exit 1
fi
if ! grep -qF -- "$pattern" <<<"$err"; then
  echo "FAIL: stderr of '$*' does not name '$pattern':" >&2
  printf '%s\n' "$err" >&2
  exit 1
fi
echo "rejected with exit 2: $pattern"
