#!/usr/bin/env bash
# Bench artifacts: one `bench` subcommand per BENCH_*.json — the
# seeded crypto-primitive/record-path benches (dataplane), the
# session-host capacity benches (scale), the handshake fast-path
# benches (handshake), the read-only-forward / service-chain benches
# (chain), and the middlebox-authorization comparison (auth). Each
# subcommand writes its artifact and then gates it (required keys,
# finite numbers, floors; see `Artifact::check` in crates/bench),
# exiting non-zero and naming every failed check.
#
#   scripts/bench_report.sh           full run; writes BENCH_dataplane.json,
#                                     BENCH_scale.json (hours: the
#                                     10k/100k/1M × 1/2/4/8-shard matrix,
#                                     rewritten after every tier),
#                                     BENCH_handshake.json,
#                                     BENCH_chain.json, and BENCH_auth.json
#                                     (each under a minute on a 2-core
#                                     Xeon) at the repo root — the
#                                     committed artifacts
#   scripts/bench_report.sh --smoke   tiny budgets (seconds) writing to
#                                     target/; used by scripts/check.sh
#                                     as the gate
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=.
ARGS=()
if [[ "${1:-}" == "--smoke" ]]; then
    DIR=target
    ARGS+=(--smoke)
    mkdir -p target
fi

for SUB in dataplane scale handshake chain auth; do
    OUT="$DIR/BENCH_$SUB.json"
    cargo run -q --release -p mbtls-bench --bin bench -- "$SUB" "${ARGS[@]}" --out "$OUT" > /dev/null
    echo "OK: wrote $OUT"
done
