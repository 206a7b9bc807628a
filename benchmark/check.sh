#!/usr/bin/env bash
# Two sets of runs of the same code, compared under BENCHMARK.json's bounds:
# every host-clock metric must agree within its bound, every virtual-clock
# value and digest must be identical. This is the script CI will call once
# a later change may edit ci.yml; the acceptance check runs it on seed 61
# and on one other seed.
#
#   benchmark/check.sh [SEED] [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-61}"
shift || true
out=benchmark/out

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

"$bin" run --seed "$seed" --out "$out/check-a.json" "$@" >"$out.check-a.log" 2>&1 ||
    { tail -n 40 "$out.check-a.log"; echo "first set failed (full log: $out.check-a.log)"; exit 1; }
"$bin" run --seed "$seed" --out "$out/check-b.json" "$@" >"$out.check-b.log" 2>&1 ||
    { tail -n 40 "$out.check-b.log"; echo "second set failed (full log: $out.check-b.log)"; exit 1; }
"$bin" compare "$out/check-a.json" "$out/check-b.json"
