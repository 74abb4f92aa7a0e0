//! Deterministic receipts for both ends of a checkpoint: bytes held, not
//! time measured. Opening a checkpointed database reads the log into one
//! buffer and then decodes and applies it a version at a time, so what
//! recovery holds beyond that buffer and the tables it is building is
//! one batch's coder — however long the log — and, for a table with
//! indexes, the entries it packs to build them once its part of the base
//! is read: one table's at a time. Writing the checkpoint holds a few
//! batches of its file, and nothing per row.

mod common;

use common::alloc::{
    allocations_during, large_moved_during, large_peak_during, transient_bytes, TrackingAlloc,
};
use common::TestDir;
use tendax_storage::wal::codec::SNAPSHOT_BATCH_BYTES;
use tendax_storage::{DataType, Database, Options, Predicate, Row, TableDef, Value};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A table of notes named `name`, with or without its two indexes.
fn notes_named(name: &str, indexed: bool) -> TableDef {
    let def = TableDef::new(name)
        .column("doc", DataType::Id)
        .column("seq", DataType::Int)
        .column("body", DataType::Text);
    match indexed {
        true => def
            .index(format!("{name}_by_doc"), &["doc"])
            .index(format!("{name}_by_doc_seq"), &["doc", "seq"]),
        false => def,
    }
}

/// The table both single-table cases replay.
fn notes(indexed: bool) -> TableDef {
    notes_named("notes", indexed)
}

/// Bytes of one row's entries in `notes(true)`'s indexes: a row id and a
/// doc in two words, and a row id, a doc and a seq in three.
const ENTRY_BYTES: usize = 16 + 24;

/// What opening a checkpoint cost, beyond the file it read.
struct Replayed {
    /// Bytes held at the high-water mark beyond what the open database
    /// holds, less the file.
    over_file: usize,
    /// Bytes held at the high-water mark in blocks the benchmark's
    /// `malloc` maps afresh ([`common::alloc::LARGE`]), less the file.
    large_over_file: usize,
    /// Bytes of those blocks reallocated: what an allocator that cannot
    /// grow a block in place copies.
    large_moved: usize,
    allocations: u64,
}

/// What recovery holds beyond the file buffer and the tables, replaying
/// a checkpoint of `rows` rows of some fifty bytes each (a batch of them
/// is about 1 300 rows).
fn replay_overhead(rows: i64) -> usize {
    replay(&[(notes(false), rows)], 1).over_file
}

/// Checkpoint `tables` (each with its row count, its rows dealt out
/// over `docs` documents in turn, as editors typing into several
/// documents interleave them) and open the result.
fn replay(tables: &[(TableDef, i64)], docs: i64) -> Replayed {
    let dir = TestDir::new("tendax-replay-alloc");
    let path = dir.file("db.wal");
    {
        let db = Database::open(&path, Options::default()).unwrap();
        for (def, rows) in tables {
            let t = db.create_table(def.clone()).unwrap();
            let mut txn = db.begin();
            for seq in 0..*rows {
                let body = Value::Text(format!("{seq:>40}"));
                let doc = Value::Id(7 + (seq % docs) as u64);
                txn.insert(t, Row::new(vec![doc, Value::Int(seq), body]))
                    .unwrap();
            }
            txn.commit().unwrap();
        }
        db.checkpoint().unwrap();
    }
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let open = || Database::open(&path, Options::default()).unwrap();
    let ((((db, allocations), transient), large), large_moved) =
        large_moved_during(|| large_peak_during(|| transient_bytes(|| allocations_during(open))));
    for (def, rows) in tables {
        let t = db.table_id(&def.name).unwrap();
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap() as i64, *rows);
    }
    Replayed {
        over_file: transient.saturating_sub(file_len),
        large_over_file: large.saturating_sub(file_len),
        large_moved,
        allocations,
    }
}

#[test]
fn replay_holds_one_decoded_frame_not_the_log() {
    // A batch is applied a version at a time as it is decoded, so what
    // replay holds beside the rows (which the tables keep) is the coder
    // and one version: the same for a log four times as long. Decoding
    // the whole log before applying any of it held 594 497 bytes over
    // the file at 10 000 rows, 2 403 089 at 40 000; collecting each
    // frame's records first, 43 043 and 46 371; here: 2 011 at both.
    let bound = 4 * SNAPSHOT_BATCH_BYTES;
    let small = replay_overhead(10_000);
    let large = replay_overhead(40_000);
    assert!(small < bound, "10 000 rows: {small} bytes over the file");
    assert!(large < bound, "40 000 rows: {large} bytes over the file");
}

#[test]
fn replay_of_an_indexed_table_holds_one_frame_and_the_entries_it_builds() {
    // Replay packs every version's entries beside the tables and builds
    // each index from them once the table's part of the base is read:
    // what it holds is a frame and at most the entries being built,
    // which grow with the rows. Inserting each entry into its tree as
    // the row was replayed held one frame: 28 067 bytes over the file at
    // 10 000 rows, 24 739 at 40 000. Staging in vectors grown by doubling
    // held 253 627 and 891 644 with every table's entries staged until
    // the last frame; built as each table's part of the base ends,
    // 212 595 and 847 283: the room the vectors grew into and the
    // trees' nodes beyond it.
    let bound = |rows: usize| 4 * SNAPSHOT_BATCH_BYTES + rows * ENTRY_BYTES;
    for rows in [10_000, 40_000] {
        let held = replay(&[(notes(true), rows as i64)], 1).over_file;
        assert!(
            held < bound(rows),
            "{rows} rows: {held} bytes over the file"
        );
    }
}

#[test]
fn two_tables_are_built_one_at_a_time() {
    // A table's indexes are built once its part of the base is read, so
    // the staged entries held at once are one table's, not both: in
    // blocks the benchmark's `malloc` maps afresh, two tables hold what
    // one holds and the room to sort one index of the first. Building
    // every index after the last segment held 5 242 880 bytes over the
    // file for these two tables of 40 000 rows, twice one table's
    // 2 621 440; here: 3 261 440. The rows are spread over eight
    // documents, so the build sorts.
    let table = |name| (notes_named(name, true), 40_000);
    let one = replay(&[table("notes")], 8).large_over_file;
    let two = replay(&[table("notes"), table("drafts")], 8).large_over_file;
    let sort_room = 40_000 * 24;
    assert!(
        two <= one + sort_room,
        "two tables held {two} bytes over the file, one {one}"
    );
}

#[test]
fn a_base_of_many_batches_copies_its_staged_entries_a_bounded_number_of_times() {
    // A base of 100 000 rows is some 75 batches. Staged entries grow
    // with their vectors' doubling, so what reallocating them may copy,
    // in blocks the benchmark's `malloc` maps afresh, is about their own
    // size (here 4 587 520 bytes for 4 000 000 of entries), however many
    // batches there are. Growing the room by each batch's count, as
    // batches arrived, copied the staged entries once per batch.
    let rows = 100_000;
    let moved = replay(&[(notes(true), rows as i64)], 8).large_moved;
    let entries = rows * ENTRY_BYTES;
    assert!(
        moved <= 2 * entries,
        "{moved} bytes reallocated for {entries} bytes of entries"
    );
}

#[test]
fn a_replayed_base_row_costs_its_row_and_an_entry_its_bytes() {
    // A counted receipt for the base of one indexed table of 40 000 rows,
    // its rows in one document and spread over eight (whose build
    // sorts): allocations per replayed row (its row, and a share of the
    // pages, the tree nodes and the coder's buffers), and bytes per
    // staged entry at the high-water mark, in blocks the benchmark's
    // `malloc` maps afresh (the staged entries and the room their
    // vectors grew into, beside the file). With a frame's records
    // collected first and a coder per batch it was 1.208 allocations per
    // row (48 317) and 32.77 bytes per entry both ways, the pins; here:
    // 1.189 (47 562 and 47 564) and 32.77.
    let rows = 40_000;
    for docs in [1, 8] {
        let replayed = replay(&[(notes(true), rows as i64)], docs);
        let per_row = replayed.allocations as f64 / rows as f64;
        let per_entry = replayed.large_over_file as f64 / (2 * rows) as f64;
        println!(
            "{docs} documents: replayed base row: {per_row:.3} allocations; \
             staged entry: {per_entry:.2} bytes"
        );
        assert!(
            replayed.allocations <= 48_317,
            "{docs} documents: {} allocations for {rows} rows",
            replayed.allocations
        );
        assert!(
            per_entry <= 32.77,
            "{docs} documents: {per_entry:.2} bytes per staged entry"
        );
    }
}

#[test]
fn a_checkpoint_holds_its_file_and_nothing_per_row_beside_it() {
    // The checkpoint's base is encoded straight from the tables and
    // written out a row-slot page at a time, so what it holds is a few
    // batches, whatever the size of the file. PR 23's checkpoint held
    // every live row a second time as a record and encoded them into a
    // buffer that doubled as it grew: 10 785 982 bytes held for a file of
    // 2 499 544; PRs 24 to 42 held the file. Here: 141 813 for a file of
    // 2 400 658.
    let dir = TestDir::new("tendax-checkpoint-alloc");
    let path = dir.file("db.wal");
    let db = Database::open(&path, Options::default()).unwrap();
    let t = db
        .create_table(
            TableDef::new("notes")
                .column("doc", DataType::Id)
                .column("seq", DataType::Int)
                .column("body", DataType::Text),
        )
        .unwrap();
    let mut txn = db.begin();
    for seq in 0..50_000 {
        let body = Value::Text(format!("{seq:>40}"));
        let row = vec![Value::Id(7), Value::Int(seq), body];
        txn.insert(t, Row::new(row)).unwrap();
    }
    txn.commit().unwrap();
    let ((), held) = transient_bytes(|| db.checkpoint().unwrap());
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(
        held <= 4 * SNAPSHOT_BATCH_BYTES,
        "a checkpoint of {file_len} bytes held {held}"
    );
}
