#!/usr/bin/env bash
# Same-seed determinism check: runs a command twice and fails, naming the
# command, unless both runs print the same bytes.
#
#   ci/run_twice.sh '<command>' [filter]
#
# With a filter (an extended regex) only the matching lines are compared;
# a run that prints no matching line fails, so a check is never vacuous.
# A filtered command's own exit status is deliberately not checked (no
# pipefail): this check is about the bytes printed, and what a sweep
# enforces beyond them (`twob-bench --gate`) has its own CI job.
set -eu

command=$1
filter=${2:-}
first=$(mktemp)
second=$(mktemp)
trap 'rm -f "$first" "$second"' EXIT

run() {
    if [ -n "$filter" ]; then
        bash -c "$command" | grep -E "$filter"
    else
        bash -c "$command"
    fi
}

fail() {
    echo "$1: $command" >&2
    exit 1
}

run >"$first" || fail "failed or printed nothing to compare"
run >"$second" || fail "failed or printed nothing to compare"
diff "$first" "$second" || fail "not deterministic"
