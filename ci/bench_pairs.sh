#!/usr/bin/env bash
# Parent -> change comparison of the benchmark: alternating pairs of
# `benchmark run` on a parent commit and on this working tree, each pair
# graded by `benchmark compare`, then one table over all pairs.
#
#   ci/bench_pairs.sh <parent-ref> [pairs=10] [seed=61] [-- flags for 'benchmark run']
#
# A gain is claimed from the closing table (choosing-metrics, section 8):
# the change wins at least nine pairs in ten and the medians differ by more
# than the parent's own inter-quartile range. A by-stander metric is
# "unresolved", not "unchanged", when a side's IQR is wider than the bound;
# the table prints each side's IQR as a share of the *parent's* median,
# which is the figure BENCHMARK.json's bounds are applied to.
#
# Exit status: 0 when every pair's digests and virtual-clock values are
# identical; 1 when any pair differs there, or a run failed its own output
# checks; 2 on a usage error, or when `benchmark/` or `BENCHMARK.json`
# differ from the parent's (the two sides would be measured by different
# instruments).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: ci/bench_pairs.sh <parent-ref> [pairs=10] [seed=61] [-- flags for 'benchmark run']" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10
seed=61
if [ $# -gt 0 ] && [ "$1" != -- ]; then pairs=$1 && shift; fi
if [ $# -gt 0 ] && [ "$1" != -- ]; then seed=$1 && shift; fi
if [ $# -gt 0 ]; then
    [ "$1" = -- ] || usage
    shift
fi
run_flags=("$@")
case "$pairs$seed" in *[!0-9]* | '') usage ;; esac
[ "$pairs" -ge 1 ] || usage

git diff --quiet "$parent" -- benchmark BENCHMARK.json || {
    echo "benchmark/ or BENCHMARK.json differ from $parent (or it is not a commit): refusing to compare" >&2
    exit 2
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"

for root in "$work/parent" .; do
    cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" \
        --target-dir "$root/benchmark/target"
done
# Copies, so a rebuild of this tree mid-run cannot swap a side's binary.
cp "$work/parent/benchmark/target/release/benchmark" "$work/benchmark-parent"
cp benchmark/target/release/benchmark "$work/benchmark-change"

# One `benchmark run` of one side, from that side's own root.
run_side() {
    local side=$1 pair=$2 root=.
    [ "$side" = change ] || root=$work/parent
    (cd "$root" && "$work/benchmark-$side" run --seed "$seed" \
        --out "$work/$side-$pair.json" ${run_flags[@]+"${run_flags[@]}"}) \
        >"$work/$side-$pair.log" 2>&1 || {
        tail -n 40 "$work/$side-$pair.log"
        echo "pair $pair: the $side run failed" >&2
        exit 1
    }
}

for pair in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((pair % 2)) -eq 1 ] || order="change parent"
    for side in $order; do run_side "$side" "$pair"; done
    echo "== pair $pair/$pairs, seed $seed, $order =="
    "$work/benchmark-change" compare "$work/parent-$pair.json" "$work/change-$pair.json" |
        tee "$work/compare-$pair.txt" || true
done

echo
echo "== $pairs pairs, seed $seed: median [q1 .. q3] per side; ratio = change/parent medians;"
echo "== won = pairs where the change read better (ties count for neither);"
echo "== IQR% = each side's q3-q1 as a share of the parent's median"
awk '
    # Quartiles by the exclusive method, as `benchmark` computes them.
    function quartile(v, n, q,    pos, below) {
        if (n == 1) return v[1]
        pos = q * (n + 1) / 4
        below = int(pos)
        if (below < 1) below = 1
        if (below > n - 1) below = n - 1
        return v[below] + (pos - below) * (v[below + 1] - v[below])
    }
    function sorted(src, key, n, dst,    i, j, x) {
        for (i = 1; i <= n; i++) {
            x = src[key, i]
            for (j = i - 1; j >= 1 && dst[j] > x; j--) dst[j + 1] = dst[j]
            dst[j + 1] = x
        }
    }
    /^[a-z0-9_]+$/ {
        workload = $1
        if (!(workload in seen)) { seen[workload] = 1; names[++count] = workload }
        next
    }
    $3 == "->" && ($1 == "sim_ops_per_s" || $1 == "setup_s" || $1 == "peak_rss_mb") {
        key = workload SUBSEP $1
        i = ++n[key]
        parent[key, i] = $2 + 0
        change[key, i] = $4 + 0
        gain = ($1 == "sim_ops_per_s") ? $4 - $2 : $2 - $4
        if (gain > 0) won[key]++
    }
    END {
        split("sim_ops_per_s setup_s peak_rss_mb", metrics, " ")
        printf "%-13s %-14s %35s %35s %6s %6s %8s %8s\n", "workload", "metric", \
            "parent", "change", "ratio", "won", "IQR% p", "IQR% c"
        for (w = 1; w <= count; w++) for (m = 1; m <= 3; m++) {
            key = names[w] SUBSEP metrics[m]
            if (!(key in n)) continue
            sorted(parent, key, n[key], p)
            sorted(change, key, n[key], c)
            pm = quartile(p, n[key], 2); p1 = quartile(p, n[key], 1); p3 = quartile(p, n[key], 3)
            cm = quartile(c, n[key], 2); c1 = quartile(c, n[key], 1); c3 = quartile(c, n[key], 3)
            printf "%-13s %-14s %10.6g [%9.6g .. %9.6g] %10.6g [%9.6g .. %9.6g] %6.2f %3d/%-2d %8.1f %8.1f\n", \
                names[w], metrics[m], pm, p1, p3, cm, c1, c3, cm / pm, won[key], n[key], \
                100 * (p3 - p1) / pm, 100 * (c3 - c1) / pm
        }
    }
' "$work"/compare-*.txt

# `compare` marks them "DIFFERS (virtual clock)", "digest DIFFERS:" and
# "virtual <key> DIFFERS:"; its summary line names the word too, and a
# host-clock WORSE alone is not this script's failure.
if grep -qE 'DIFFERS( \(|:)|missing from a result file' "$work"/compare-*.txt; then
    echo "a digest or virtual-clock value differs between parent and change (see the pairs above)" >&2
    exit 1
fi
