#!/usr/bin/env bash
# Non-test code lines, the figure each PR's "net-negative" claim quotes
# (ROADMAP item 8, CHANGES.md): per crate over crates/*/src, then the
# examples and the vendored stand-ins, then the total of all three. Two
# rows after the total count code that also ships but stays outside it,
# so the total reads as it always has: the benchmark (benchmark/src) and
# the facade crate (src).
#
#   ci/loc.sh [repo-root]
#
# A file counts up to its first `#[cfg(test)]`; blank lines and lines that
# hold only a comment do not count, so neither deleting comments nor
# moving code into a test module moves the figure.
set -eu

cd "${1:-$(dirname "$0")/..}"

count() {
    awk 'FNR == 1 { live = 1 }
         /#\[cfg\(test\)\]/ { live = 0 }
         live && !/^[[:space:]]*(\/\/.*)?$/ { n++ }
         END { print n + 0 }' "$@"
}

crates=0
for dir in crates/*/src; do
    n=$(count "$dir"/*.rs)
    printf '%-10s %6d\n' "$(basename "$(dirname "$dir")")" "$n"
    crates=$((crates + n))
done
examples=$(count examples/*.rs)
vendor=$(count vendor/*/src/*.rs)
printf '%-10s %6d\n' 'crates/*' "$crates" examples "$examples" vendor "$vendor" \
    total "$((crates + examples + vendor))" \
    benchmark "$(count $(find benchmark/src -name '*.rs' | sort))" facade "$(count src/*.rs)"
