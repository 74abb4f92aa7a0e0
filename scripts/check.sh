#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
# Usage: scripts/check.sh
#
# The root manifest's `default-members` lists every crate, so the bare
# `cargo build` / `cargo test` / `cargo clippy` / `cargo bench` below
# cover the whole workspace: `cargo test -q` is where the per-layer
# suites run, and it is the tier-1 command too;
# CI repeats some of them as jobs of their own so a red result names the
# layer. The storage-format job's include tendax-storage `index_keys`
# (packed index keys: order, prefix, round trip; prints PROPTEST_SEED=<n>
# on failure), `row_slots` (row slots against a B-tree model; the same)
# and `resident_size`. The metadata-services job's are:
# tendax-storage `commit_observer`, tendax-text `doc_stats_memo`,
# `purge_oracle` and `effect_ranges` (range effects against per-character
# receipts; both print PROPTEST_SEED=<n> on failure), tendax-meta
# `incremental_oracle` (the same), `incremental_cost`,
# `services_read_only`, `folder_algebra`, and the root package's
# `metadata_services`. `benchmark/` is a workspace of its own; the last
# leg builds and runs it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# Every suite of every crate, sim_crash's 32 seeds included. Nothing
# below re-runs one of them under the same environment.
cargo test -q

echo "==> cold-tier matrix leg (tests/common::options() turns the cold tier on)"
TENDAX_COLD=1 cargo test -q -p tendax-storage \
    --test sim_crash --test commit_pipeline --test merge_commit \
    --test maintenance --test recovery_faults --test read_path \
    --test commit_observer

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> bench_compare.py --self-test"
python3 scripts/bench_compare.py --self-test

echo "==> benchmark package (own workspace: build, harness tests, --quick run of every workload)"
# Nothing else builds benchmark/: its path dependencies on crates/* are
# how a product API change breaks it, and the acceptance pipeline would
# be the first to notice. --quick verifies all four workloads against
# their reference models in about 20 s.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --quick

echo "==> all checks passed"
