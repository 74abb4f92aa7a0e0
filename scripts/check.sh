#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
# Usage: scripts/check.sh
#
# The root manifest's `default-members` lists every crate, so the bare
# `cargo build` / `cargo test` / `cargo clippy` below cover the whole
# workspace: `cargo test -q` is where the per-layer
# suites run, and it is the tier-1 command too;
# CI repeats some of them as jobs of their own so a red result names the
# layer. The storage-format job's include tendax-storage `index_keys`
# (packed index keys: order, prefix, round trip, word entries in byte
# order; prints PROPTEST_SEED=<n> on failure), `index_oracle` (each
# index built once at open or rebuilt by vacuum equals a fresh
# build over the versions, across random histories and reopens; the
# same), `replay_alloc`'s two_tables_are_built_one_at_a_time (a table's
# indexes built once its part of the base is read: one table's staged
# entries at the peak),
# a_base_of_many_batches_copies_its_staged_entries_a_bounded_number_of_times
# (bytes of staged entries reallocated, about their own size) and
# a_replayed_base_row_costs_its_row_and_an_entry_its_bytes (the counted
# replay receipt: allocations per base row and bytes per staged entry,
# printed with --nocapture), `--lib util::tests::`
# eight_bytes_a_step_equals_a_byte_at_a_time (the frame CRC's eight-byte
# step against a byte at a time, every length to 1 024 at every start
# offset to 7) and known_vectors, `row_slots` (row slots against a B-tree model; the same),
# `delta_rows` (checkpoint rows coded against the row above them: round
# trip, writer = weigher = `encode_record`, replay; the same),
# `format_size` (exact bytes: a checkpoint row of each keystroke table,
# and one anchored keystroke — its character, `oplog` and `op_effects`
# rows, no neighbour written) and `resident_size`; and the checkpoint's
# log rotation: `maintenance` (crash_before_rename_recovers_pre_checkpoint_state,
# crash_after_rename_before_the_deletes_recovers_the_base_plus_a_prefix,
# an_orphaned_segment_and_temp_file_are_swept_on_open,
# a_commit_returns_while_the_base_is_written — a bounded wait —,
# a_vacuum_while_the_base_is_written_keeps_the_rows_at_the_watermark and
# a_failed_base_write_or_demotion_leaves_the_log_writable), `group_commit`
# (a_checkpoint_image_is_exact_until_the_next_append: the base plus one
# segment of only its format frame) and `sim_crash`'s
# checkpoint_crash_never_loses_fsynced_commits (every op of a checkpoint
# power-cut at both levels, commits landing between the switch and the
# base), room_growth_crash_keeps_every_acknowledged_commit (across a
# rotation), read_event_crash_keeps_edits_and_a_commit_order_prefix
# (every op of "open, edit, open, checkpoint, open, drop" power-cut at
# both levels, each open a read event that waits for no flush: edits
# kept, a commit-order prefix, the read before the checkpoint in the
# sealed segment, a clean drop writing the last read) and
# read_event_behind_a_failed_sync_is_never_durable, seed 0 cold off and
# on. The transport job's include tendax-net `codec`
# (protocol v3: run-coded snapshots against the layout spelled out,
# hostile run tables refused typed, the `Delta` a live document's tail
# encodes against its layout, hostile deltas refused typed, a v2 `Hello`
# refused, and the round-trip proptests of the run coder and of `Delta`
# and the widened `Subscribe`, which print PROPTEST_SEED=<n> on
# failure), `loopback` (request ids: a snapshot answers only its own
# request; v1 `Hello` refused; a re-open while another client holds the
# document is one delta and no snapshot;
# a_subscriber_that_makes_no_call_keeps_up, right after its last call
# and after an idle second; two_threads_share_one_client_for_200_rounds,
# one in `wait_synced` while the other pings and types), `live` (one commit path into a
# live document: the frontier, the oracle, the races with in-process
# editors; a kept mirror plus the answer against a fresh load), `mirror_oracle` (the
# client mirror against the server's chain; prints PROPTEST_SEED=<n> on
# failure), `mirror_cost` (allocations per applied event and per loaded
# run), `idle` (an idle connection wakes no transport thread), `wakeups`
# (200 acknowledged edits watched by a second subscriber wake no writer
# thread — switches, `writer_wakes` and `answers_handed_off` all 0: the reader writes its
# reply and echo in one write and the publisher writes the watcher's
# socket, 3·EDITS frames in 2·EDITS writes — and the client's reader
# thread fewer than 50 times: a waiting call reads its own reply), `sim_net` (a hub, two connections and two clients in one
# thread under a seeded delivery schedule, each edit's broadcast held as
# a step of its own, every stream in commit order, every mirror at its
# frontier after each event and each `Delta`, the `EditOk` checked ahead
# of its event, closes and re-opens resumed by deltas, lost streams
# recovered by deltas and snapshots, 32 seeds; TENDAX_SIM_SEED=<n>
# replays one), `durable_events` (an edit whose log sync fails is
# rejected, its event never handed out and never carried by a delta; a
# `Subscribe` and a `TextDb::open` write and sync nothing, and the next
# edit's flush is one batch of two records with one sync),
# `capacity` (with a_stalled_subscriber_never_holds_up_a_typists_ack:
# every edit acknowledged within a second while a subscriber that never
# reads is lost and cut, a minute's write timeout notwithstanding;
# a_write_cut_short_is_finished_by_the_writer_in_order; and
# an_answer_left_to_the_writer_is_counted) once more in a
# release build (its stalled-reader tests once raced there) and the whole of tendax-collab (one
# copy per document shared by every editor, the edit protocol, sessions,
# the bus's publish hooks — no bus queues, no simulated latency). The
# metadata-services job's are:
# tendax-storage `commit_observer` (each row's replaced and published
# versions, a non-resident replaced version on a cold-tier database),
# tendax-text `doc_stats_memo` (the statistics fold under two writers,
# a commit parked between its fold and its visibility, the cold-tier
# fallback), `purge_oracle` (the purge against a full scan, and the
# order left against one derived from the anchors), `anchor_order`
# (stale handles type, delete and purge; a fresh load's order against an
# insert-right-after-the-anchor model) and `effect_ranges` (range
# effects against per-character receipts; all three print
# PROPTEST_SEED=<n> on failure),
# tendax-meta `incremental_oracle` (statistics, folders, search and the
# lineage graph against a cold init, with a second engine and folder
# sets reading the server's copies; the same), `incremental_cost`
# (reads counted: folded edits and a lineage build read no table but
# `documents`; a held document's re-index reads no table, allocations
# pinned; a ten-hit query reads ten names), `no_wait` (a service never
# waits for a document's lock: a view held by its own thread, an edit in
# flight; under a timeout), the `search::` unit test
# a_snippet_is_cut_at_its_match_when_lowercasing_changes_byte_lengths,
# `services_read_only`, `folder_algebra`, and the root package's
# `metadata_services`, and tendax-text `proptests` (the chain's cached
# info against a fresh load, field by field; prints PROPTEST_SEED=<n> on
# failure), `alloc_count` (allocations of an open, of a whole-chain
# walk and of an event check, bytes a loaded character holds), the
# `chain::` unit tests (each slot's successor link against the treap's
# in-order walk, and the shape oracle
# inserts_keep_the_tree_a_build_links: after every insert at the head,
# middle or tail, typed run or visibility toggle, the tree is node for
# node the one `Chain::build` links; proptests, the same), the
# `rights_memo` unit tests of tendax-text (a revoked write, a removed
# role, a new protected range and a denied read refuse the next edit or
# open after a warm one; an older snapshot reads afresh; a rule on
# another document leaves the memo warm; the memo's bound) and
# rights_are_checked_on_the_transaction_that_writes (each
# rights-management call begins one transaction; a refused one commits
# nothing), with
# tendax-net `loopback`'s rights_memo_refuses_a_subscribe_once_read_is_denied,
# and tendax-collab `keystroke_receipt` (point gets, index lookups and
# allocations per typed character and per backspace through `EditorDoc`,
# pinned and printed). `benchmark/` is a workspace of its own; the last
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
    --test sim_crash --test commit_pipeline --test first_committer_wins \
    --test maintenance --test recovery_faults --test read_path \
    --test commit_observer

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> examples (every one that needs no input)"
# `cargo test` builds the examples but runs none of them.
for example in quickstart document_management business_process \
    workspace_report durable_workspace lan_party collab_tcp; do
    cargo run --release --quiet --example "$example" > /dev/null
done

echo "==> ablations A1 and A3 (--quick)"
cargo run --release --quiet -p tendax-bench --bin ablation_position_index -- --quick
cargo run --release --quiet -p tendax-bench --bin ablation_compaction -- --quick

echo "==> figures 1 and 2 (deterministic: the committed series must not move)"
cargo run --release --quiet -p tendax-bench --bin figure1_lineage > /dev/null
cargo run --release --quiet -p tendax-bench --bin figure2_mining > /dev/null
git diff --exit-code -- bench_results/
untracked=$(git ls-files --others --exclude-standard -- bench_results/)
if [ -n "$untracked" ]; then
    echo "untracked files under bench_results/: $untracked" >&2
    exit 1
fi

echo "==> benchmark package (own workspace: build, harness tests, --quick run of every workload)"
# Nothing else builds benchmark/: its path dependencies on crates/* are
# how a product API change breaks it, and the acceptance pipeline would
# be the first to notice. --quick verifies all four workloads against
# their reference models in about 20 s.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --quick

echo "==> all checks passed"
