#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> crash-injection suite (checkpoint/maintenance + WAL recovery)"
cargo test -q -p tendax-storage --test maintenance --test recovery_faults

echo "==> on-disk format v2, on disk and in RAM (round-trip and packed-row proptests, cut + bit-flip sweeps over frames and cold runs, v1 refusal, a parent-written log, pinned disk and resident sizes, streamed replay)"
cargo test -q -p tendax-storage --test wal_format --test format_size --test resident_size --test replay_alloc
cargo test -q -p tendax-storage --lib -- wal:: cold::run row::

echo "==> crash-simulation suite (SimVfs, seeds 0..32)"
cargo test -q -p tendax-storage --test sim_crash

echo "==> WAL shard-layout reopen compatibility (re-shard on checkpoint)"
cargo test -q -p tendax-storage --test reshard

echo "==> sharded-WAL matrix leg (default layout forced to 4 shards)"
TENDAX_WAL_SHARDS=4 cargo test -q -p tendax-storage \
    --test sim_crash --test commit_pipeline --test merge_commit \
    --test maintenance --test recovery_faults --test reshard

echo "==> cold-tier smoke (demotion + reopen + point lookup)"
cargo test -q -p tendax-storage --test cold_storage

echo "==> cold-tier matrix leg (default options forced cold-enabled)"
TENDAX_COLD=1 cargo test -q -p tendax-storage \
    --test sim_crash --test commit_pipeline --test merge_commit \
    --test maintenance --test recovery_faults --test read_path

echo "==> commit-pipeline invariants (gap-freedom, FCW, WAL prefix replay)"
cargo test -q -p tendax-storage --test commit_pipeline

echo "==> commutative merge-commit suite (descriptor merge vs abort matrix)"
cargo test -q -p tendax-storage --test merge_commit

echo "==> transport loopback smoke (wire codec + TCP e2e convergence + live documents)"
cargo test -q -p tendax-net --test codec --test loopback --test live

echo "==> connection-capacity + slow-consumer + thread-count suite"
cargo test -q -p tendax-net --test capacity --test threads

echo "==> lan-party determinism suite (schedule digest + byte identity)"
cargo test -q -p tendax-bench --test lan_party_determinism

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> bench_compare.py --self-test"
python3 scripts/bench_compare.py --self-test

echo "==> lan-party smoke (small-N, both drivers)"
cargo bench -p tendax-bench --bench lan_party -- --test

echo "==> benchmark package (own workspace: build, harness tests, --quick run of every workload)"
# Nothing else builds benchmark/: its path dependencies on crates/* are
# how a product API change breaks it, and the acceptance pipeline would
# be the first to notice. --quick verifies all four workloads against
# their reference models in about 20 s.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --quick

echo "==> all checks passed"
