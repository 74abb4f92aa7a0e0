//! Deterministic receipts for both ends of a checkpoint: bytes held, not
//! time measured. Opening a checkpointed database reads the log into one
//! buffer and then decodes, applies and drops it a frame at a time, so
//! what recovery holds beyond that buffer and the tables it is building
//! is one decoded frame — however long the log — and, for a table with
//! indexes, the entries it packs to build them once at the end. Writing
//! the checkpoint holds a few batches of its file, and nothing per row.

mod common;

use common::alloc::{transient_bytes, TrackingAlloc};
use common::TestDir;
use tendax_storage::wal::codec::SNAPSHOT_BATCH_BYTES;
use tendax_storage::{DataType, Database, Options, Predicate, Row, TableDef, Value};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// The table both cases replay, with or without its two indexes.
fn notes(indexed: bool) -> TableDef {
    let def = TableDef::new("notes")
        .column("doc", DataType::Id)
        .column("seq", DataType::Int)
        .column("body", DataType::Text);
    match indexed {
        true => def
            .index("by_doc", &["doc"])
            .index("by_doc_seq", &["doc", "seq"]),
        false => def,
    }
}

/// Bytes of one row's entries in `notes(true)`'s indexes: a row id and a
/// doc in two words, and a row id, a doc and a seq in three.
const ENTRY_BYTES: usize = 16 + 24;

/// What recovery holds beyond the file buffer and the tables, replaying
/// a checkpoint of `rows` rows of some fifty bytes each (a batch of them
/// is about 1 300 rows).
fn replay_overhead(rows: i64) -> usize {
    replay_overhead_of(rows, notes(false))
}

fn replay_overhead_of(rows: i64, def: TableDef) -> usize {
    let dir = TestDir::new("tendax-replay-alloc");
    let path = dir.file("db.wal");
    {
        let db = Database::open(&path, Options::default()).unwrap();
        let t = db.create_table(def).unwrap();
        let mut txn = db.begin();
        for seq in 0..rows {
            let body = Value::Text(format!("{seq:>40}"));
            let row = vec![Value::Id(7), Value::Int(seq), body];
            txn.insert(t, Row::new(row)).unwrap();
        }
        txn.commit().unwrap();
        db.checkpoint().unwrap();
    }
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let (db, transient) = transient_bytes(|| Database::open(&path, Options::default()).unwrap());
    let t = db.table_id("notes").unwrap();
    assert_eq!(db.begin().count(t, &Predicate::True).unwrap() as i64, rows);
    transient.saturating_sub(file_len)
}

#[test]
fn replay_holds_one_decoded_frame_not_the_log() {
    // One decoded batch is its rows (which the tables keep) and a
    // record around each (which they do not): a few times the batch's
    // bytes, and the same for a log four times as long. The parent
    // decoded the whole log before applying any of it: 594 497 bytes
    // over the file at 10 000 rows, 2 403 089 at 40 000 (here: ≈ 28 000
    // at both).
    let bound = 4 * SNAPSHOT_BATCH_BYTES;
    let small = replay_overhead(10_000);
    let large = replay_overhead(40_000);
    assert!(small < bound, "10 000 rows: {small} bytes over the file");
    assert!(large < bound, "40 000 rows: {large} bytes over the file");
}

#[test]
fn replay_of_an_indexed_table_holds_one_frame_and_the_entries_it_builds() {
    // Replay packs every version's entries beside the tables and builds
    // each index from them once, after the last segment: what it holds
    // is a frame and at most the entries being built, which grow with
    // the rows. The parent inserted each entry into its tree as the row
    // was replayed and held one frame: 28 067 bytes over the file at
    // 10 000 rows, 24 739 at 40 000 (here: 253 627 and 891 643, 0.63
    // and 0.56 times the entries' bytes; the trees built in bulk are
    // fuller than the ones grown an entry at a time).
    let bound = |rows: usize| 4 * SNAPSHOT_BATCH_BYTES + rows * ENTRY_BYTES;
    for rows in [10_000, 40_000] {
        let held = replay_overhead_of(rows as i64, notes(true));
        assert!(
            held < bound(rows),
            "{rows} rows: {held} bytes over the file"
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
