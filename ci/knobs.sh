#!/usr/bin/env bash
# Settable values, the figure ROADMAP item 8 tracks: the `pub` fields of
# every `pub struct *Config` / `pub struct *Spec` in crates/*/src, per crate
# (fields, then structs), then the total. A field earns its place only when
# two non-test callers need different values; one value in use is a
# constant.
#
#   ci/knobs.sh [repo-root]
#
# Counted as ci/loc.sh counts lines: a file up to its first `#[cfg(test)]`.
set -eu

cd "${1:-$(dirname "$0")/..}"

count() {
    awk 'FNR == 1 { live = 1; inside = 0 }
         /#\[cfg\(test\)\]/ { live = 0 }
         !live { next }
         /^pub struct [A-Za-z0-9_]*(Config|Spec)[[:space:]]*\{/ { inside = 1; s++; next }
         inside && /^\}/ { inside = 0; next }
         inside && /^    pub [a-z_0-9]+:/ { f++ }
         END { print f + 0, s + 0 }' "$@"
}

printf '%-10s %6s %7s\n' crate fields structs
tf=0 ts=0
for dir in crates/*/src; do
    read -r f s < <(count "$dir"/*.rs)
    printf '%-10s %6d %7d\n' "$(basename "$(dirname "$dir")")" "$f" "$s"
    tf=$((tf + f)) ts=$((ts + s))
done
printf '%-10s %6d %7d\n' 'crates/*' "$tf" "$ts"
