#!/usr/bin/env bash
# Public items no program reaches (report only): per crate, the `pub` fns
# and types (struct, enum, trait, type, union) in crates/*/src whose name
# appears in no non-test source except a definition of that name, then
# the total. `--names` also lists them, one `crate name` a line.
#
#   ci/unreached.sh [repo-root] [--names]
#
# Non-test sources are crate code up to a file's first `#[cfg(test)]`,
# the facade (src/), examples/ and benchmark/src; lines that hold only a
# comment and trailing `//` comments do not count, as in ci/loc.sh. The
# match is by name, not by path, so a name two items share counts as
# reached when either is used: the figure is a floor.
set -eu

names=0
root=.
for arg in "$@"; do
    case "$arg" in
        --names) names=1 ;;
        *) root=$arg ;;
    esac
done
cd "$root"

{
    find crates -path '*/src/*.rs' | sort
    find src examples benchmark/src -name '*.rs' 2>/dev/null | sort
} | xargs awk -v names="$names" '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    !live || /^[[:space:]]*(\/\/.*)?$/ { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, w, " ")
        for (i = 1; i <= n; i++) {
            seen[w[i]]++
            if (i < n && w[i] ~ /^(fn|struct|enum|trait|type|union)$/) defined[w[i + 1]]++
        }
        # A `pub` (not `pub(crate)`) fn or type of a library crate.
        split(FILENAME, path, "/")
        if (path[1] != "crates" || w[1] != "pub" || $0 !~ /^[[:space:]]*pub[[:space:]]/) next
        for (i = 2; i < n && w[i] ~ /^(const|unsafe|async|extern|C)$/; i++) {}
        if (w[i] ~ /^(fn|struct|enum|trait|type|union)$/) {
            items++
            crate[items] = path[2]
            item[items] = w[i + 1]
            crates[path[2]] = 1
        }
    }
    END {
        for (k = 1; k <= items; k++) {
            if (seen[item[k]] > defined[item[k]]) continue
            count[crate[k]]++
            total++
            if (names) listed[k] = crate[k] " " item[k]
        }
        for (c in crates) printf "%-10s %6d\n", c, count[c] + 0 | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total + 0
        for (k = 1; k <= items; k++) if (k in listed) print listed[k]
    }'
