#!/usr/bin/env bash
# The benchmark's own acceptance check, in one line: build, run the
# harness unit tests, run every workload on two sets of seeds, and hold
# the two sets against each other with `compare`. Same code on both
# sides, so every row must come out `ok`; a `worse` or an `unresolved`
# row means the benchmark — not the program — needs work.
#
#   benchmark/check.sh [RUNS_PER_SIDE] [SECONDS]     (defaults: 3, BENCHMARK.json's run_seconds)
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-3}
seconds=${2:+--seconds $2}
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
out=benchmark/out/check

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
rm -rf "$out"
for side in a b; do
    for i in $(seq "$runs"); do
        # Seeds differ within a side and between the sides.
        seed=$((i * 2 + $([ "$side" = a ] && echo 0 || echo 1)))
        "${bench[@]}" run --seed "$seed" $seconds --out "$out/$side-$i.json"
    done
done
"${bench[@]}" compare "$out"/a-*.json -- "$out"/b-*.json
