#!/usr/bin/env bash
# Every workload at a tenth of its length with every correctness check on,
# plus the traced run of the workloads whose traced run is short. Meant for
# CI: fails on the first run that is not correct. Run from anywhere; builds
# into benchmark/target unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/unit-benchmark"

start=$(date +%s)
run() {
    "$bin" run --workload "$1" --seed 1 --seconds 0.8 --trace "$2" 2>/dev/null |
        tail -n 1 | grep -q '"correct": true' ||
        { echo "smoke: $1 --trace $2 failed" >&2; exit 1; }
    echo "smoke: $1 --trace $2 ok"
}
for workload in serve-flatout serve-steady serve-overload sim-paper sim-flood cluster-mix; do
    run "$workload" 0
done
for workload in serve-flatout serve-steady serve-overload cluster-mix; do
    run "$workload" 1
done
echo "smoke: all workloads correct in $(($(date +%s) - start)) s"
