#!/usr/bin/env bash
# Rewrites the pinned paper outputs in tests/golden/: each MANIFEST line
# names a file and the `cicmon` arguments whose stdout it holds (test_golden
# diffs the same list). Usage: scripts/regen_golden.sh [build-dir]
set -euo pipefail

cli=${1:-build}/cicmon
golden=$(dirname "$0")/../tests/golden
while read -r file args; do
  [[ -z ${file} || ${file} == \#* ]] && continue
  # shellcheck disable=SC2086  # args is a word list
  "${cli}" ${args} 2> /dev/null > "${golden}/${file}"
done < "${golden}/MANIFEST"
