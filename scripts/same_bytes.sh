#!/usr/bin/env bash
# Byte-identity gate for refactors. Runs scripts/cli_scenarios.py against
# the `src` of git revision REF and against the working tree's `src`, the
# two at once, and diffs the two lists of output fingerprints. Prints
# nothing and exits 0 when every scenario gives the same bytes; otherwise
# prints the differing lines and exits non-zero, as it does when either
# side fails.
#
#   scripts/same_bytes.sh REF        e.g. scripts/same_bytes.sh HEAD~1
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$1" src | tar -x -C "$tmp"
PYTHONPATH="$tmp/src" python3 "$root/scripts/cli_scenarios.py" > "$tmp/ref.txt" &
ref=$!
work=0
PYTHONPATH="$root/src" python3 "$root/scripts/cli_scenarios.py" > "$tmp/work.txt" || work=$?
wait "$ref"  # under `set -e`, a failed REF side exits here
[ "$work" -eq 0 ] || exit "$work"
diff "$tmp/ref.txt" "$tmp/work.txt"
