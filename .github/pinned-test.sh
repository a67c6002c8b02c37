#!/usr/bin/env bash
# Runs `cargo test -q <args>` for a test pinned by name and fails when the
# run passes no test at all, summed over every test binary it runs. A
# filter that matches nothing (a pinned test renamed or deleted) makes
# cargo exit 0 with "0 passed"; this turns that into a failure.
#
# Usage: .github/pinned-test.sh -p seldon-core --lib frontend_lower_table
set -euo pipefail

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cargo test -q "$@" | tee "$log"
passed="$(grep '^test result:' "$log" | grep -o '[0-9][0-9]* passed' \
  | awk '{ total += $1 } END { print total + 0 }')"
if [ "$passed" -eq 0 ]; then
  echo "error: \`cargo test -q $*\` passed no test; the pinned filter matches nothing" >&2
  exit 1
fi
