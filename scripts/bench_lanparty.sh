#!/usr/bin/env bash
# Run the "LAN party at scale" macro-benchmark (experiment A10) and
# append its JSON summary lines — one per driver (inproc, tcp) — to
# bench_results/lan_party.json (newest last), so regressions show up as
# a diffable series.
# Usage: scripts/bench_lanparty.sh [--test] [--seed N]
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench_results
out="$PWD/bench_results/lan_party.json"

echo "==> cargo bench -p tendax-bench --bench lan_party"
# cargo runs the bench with the package dir as CWD; pass an absolute path.
cargo bench -p tendax-bench --bench lan_party -- --json "$out" "$@"

echo "==> appended to bench_results/lan_party.json:"
tail -n 2 "$out"
