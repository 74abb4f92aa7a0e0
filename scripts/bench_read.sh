#!/usr/bin/env bash
# Run the read-path benchmark and append its one-line JSON summary to
# bench_results/read_path.json (one line per run, newest last), so
# regressions show up as a diffable series.
# Usage: scripts/bench_read.sh [--test] [--note TEXT]
#   --test: small quick run; --note: label recorded with the line
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench_results
out="$PWD/bench_results/read_path.json"

echo "==> cargo bench -p tendax-bench --bench read_path"
# cargo runs the bench with the package dir as CWD; pass an absolute path.
cargo bench -p tendax-bench --bench read_path -- --json "$out" "$@"

echo "==> appended to bench_results/read_path.json:"
tail -n 1 "$out"
