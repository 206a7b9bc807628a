#!/usr/bin/env bash
# Panic sites in library code, the figure ROADMAP item 7(b) tracks: per
# crate over crates/*/src, the `assert!`/`assert_eq!`/`assert_ne!`,
# `.unwrap()`, `.expect(` and `panic!`/`unreachable!` calls, then the total.
#
#   ci/panics.sh [repo-root]
#
# Counted as ci/loc.sh counts lines: a file up to its first `#[cfg(test)]`,
# and lines that hold only a comment (doc examples included) do not count.
# `debug_assert!` and the `unwrap_or*`/`expect_err` families do not match.
set -eu

cd "${1:-$(dirname "$0")/..}"

count() {
    awk 'FNR == 1 { live = 1 }
         /#\[cfg\(test\)\]/ { live = 0 }
         live && !/^[[:space:]]*\/\// {
             line = $0
             a += gsub(/(^|[^_[:alnum:]])assert(_eq|_ne)?!/, "", line)
             u += gsub(/\.unwrap\(\)/, "", line)
             e += gsub(/\.expect\(/, "", line)
             p += gsub(/(^|[^_[:alnum:]])(panic|unreachable)!/, "", line)
         }
         END { print a + 0, u + 0, e + 0, p + 0 }' "$@"
}

row() {
    printf '%-10s %6d %6d %6d %6d %6d\n' "$1" "$2" "$3" "$4" "$5" "$(($2 + $3 + $4 + $5))"
}

printf '%-10s %6s %6s %6s %6s %6s\n' crate assert unwrap expect panic total
ta=0 tu=0 te=0 tp=0
for dir in crates/*/src; do
    read -r a u e p < <(count "$dir"/*.rs)
    row "$(basename "$(dirname "$dir")")" "$a" "$u" "$e" "$p"
    ta=$((ta + a)) tu=$((tu + u)) te=$((te + e)) tp=$((tp + p))
done
row 'crates/*' "$ta" "$tu" "$te" "$tp"
