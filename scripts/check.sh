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
# on failure), `row_slots` (row slots against a B-tree model; the same),
# `delta_rows` (checkpoint rows coded against the row above them: round
# trip, writer = weigher = `encode_record`, replay; the same) and
# `resident_size`. The transport job's include tendax-net `live` (one
# commit path into a live document: the frontier, the oracle, the races
# with in-process editors), `mirror_oracle` (the client mirror against
# the server's chain; prints PROPTEST_SEED=<n> on failure), `mirror_cost`
# (allocations per applied event) and the whole of tendax-collab (one
# copy per document shared by every editor, the edit protocol, sessions,
# the bus's publish hooks — no bus queues, no simulated latency). The
# metadata-services job's are:
# tendax-storage `commit_observer` (each row's replaced and published
# versions, a non-resident replaced version on a cold-tier database),
# tendax-text `doc_stats_memo` (the statistics fold under two writers,
# a commit parked between its fold and its visibility, the cold-tier
# fallback), `purge_oracle` and `effect_ranges` (range effects against
# per-character receipts; both print PROPTEST_SEED=<n> on failure),
# tendax-meta `incremental_oracle` (statistics, folders, search and the
# lineage graph against a cold init; the same), `incremental_cost`
# (reads counted: folded edits and a lineage build read no table but
# `documents`),
# `services_read_only`, `folder_algebra`, and the root package's
# `metadata_services`, and tendax-text `proptests` (the chain's cached
# info against a fresh load, field by field; prints PROPTEST_SEED=<n> on
# failure) and `alloc_count` (allocations of an open and of an event
# check, bytes a loaded character holds). `benchmark/` is a workspace of
# its own; the last leg builds and runs it.
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
    --test sim_crash --test commit_pipeline --test first_committer_wins \
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
