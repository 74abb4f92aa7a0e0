//! What a committed row costs in RAM (DESIGN.md, "Read path: row
//! sharing" and "The same bytes in RAM … and in the indexes"), pinned
//! the way `format_size.rs` pins what it costs on disk: requested heap
//! bytes and allocations per row, counted by a tracking allocator around
//! `TableStore::apply`, for the three row shapes a keystroke writes.
//! Requested bytes, not what
//! the allocator rounds them to, so the pins hold under any allocator.
//! Each pin carries the value of the commit that set it and of the one
//! before: PR 18 packed the row (before it, an `Arc<Row>` over a
//! `Vec<Value>` of 32 bytes a column, every version chain a `Vec` of
//! capacity four and every index key a `BTreeSet`); PR 21 packed the
//! index keys (before it, a `Vec<Value>` a key and a `BTreeSet` for a key
//! naming two rows), dropped three indexes nothing read and made a
//! descriptor one allocation; PR 23 put the version chains in row slots
//! (before it, a `BTreeMap` from row id to chain, about 90 bytes of tree
//! node a row where a slot was 40); write descriptors are gone since, which
//! took a pointer from every version (a slot is 32, a spilled version 24).

mod common;

use common::alloc::{allocations_during, retained_by, TrackingAlloc};
use tendax_storage::table::{TableStore, Version, VersionOp};
use tendax_storage::{DataType, Row, RowId, SharedRow, TableDef, TableId, Value};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const ROWS: u64 = 50_000;

fn chars_def() -> TableDef {
    TableDef::new("chars")
        .column("doc", DataType::Id)
        .nullable_column("prev", DataType::Id)
        .nullable_column("next", DataType::Id)
        .column("ch", DataType::Text)
        .column("author", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .column("version", DataType::Int)
        .column("deleted", DataType::Bool)
        .nullable_column("deleted_by", DataType::Id)
        .nullable_column("deleted_at", DataType::Timestamp)
        .nullable_column("style", DataType::Id)
        .nullable_column("src_doc", DataType::Id)
        .nullable_column("src_char", DataType::Id)
        .nullable_column("external_src", DataType::Text)
        .index("chars_by_doc", &["doc"])
}

/// The `i`-th typed character of one of eight documents, `next` link
/// rewritten `version` times.
fn chars_row(i: u64, version: u64) -> SharedRow {
    Row::new(vec![
        Value::Id(1 + i % 8),
        Value::Id(i),
        Value::Id(i + 2 + version),
        Value::Text("x".into()),
        Value::Id(1 + i % 2),
        Value::Timestamp(1_000_000 + i as i64),
        Value::Int(version as i64),
        Value::Bool(false),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ])
    .into_shared()
}

fn oplog_def() -> TableDef {
    TableDef::new("oplog")
        .column("doc", DataType::Id)
        .column("user", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("kind", DataType::Text)
        .nullable_column("target", DataType::Id)
        .column("undone", DataType::Bool)
        .index("oplog_by_doc_ts", &["doc", "ts"])
        .index("oplog_by_doc_user_ts", &["doc", "user", "ts"])
}

fn oplog_row(i: u64) -> SharedRow {
    Row::new(vec![
        Value::Id(1 + i % 8),
        Value::Id(1 + i % 2),
        Value::Timestamp(1_000_000 + i as i64),
        Value::Text("insert".into()),
        Value::Null,
        Value::Bool(false),
    ])
    .into_shared()
}

fn effects_def() -> TableDef {
    TableDef::new("op_effects")
        .column("op", DataType::Id)
        .column("kind", DataType::Text)
        .column("first", DataType::Id)
        .column("count", DataType::Int)
        .nullable_column("old_val", DataType::Text)
        .nullable_column("new_val", DataType::Text)
        .index("op_effects_by_op", &["op"])
}

fn effects_row(i: u64) -> SharedRow {
    Row::new(vec![
        Value::Id(i),
        Value::Text("ins".into()),
        Value::Id(i),
        Value::Int(1),
        Value::Null,
        Value::Null,
    ])
    .into_shared()
}

/// Apply one version of `ROWS` rows at timestamp `ts`; requested bytes
/// and allocations retained, per row.
fn apply_all(t: &mut TableStore, ts: u64, row: impl Fn(u64) -> SharedRow) -> (f64, f64) {
    let ((), bytes, blocks) = retained_by(|| {
        for i in 1..=ROWS {
            t.apply(RowId(i), ts, VersionOp::Put(row(i)));
        }
    });
    (bytes as f64 / ROWS as f64, blocks as f64 / ROWS as f64)
}

/// The table's own count of what it holds against the allocator's.
fn assert_accounted(t: &TableStore, allocator_bytes: f64) {
    let counted = t.resident_bytes().total() as f64;
    let ratio = counted / allocator_bytes;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "the table counts {counted} resident bytes, the allocator handed out {allocator_bytes}"
    );
}

#[test]
fn a_committed_chars_row_is_one_small_allocation() {
    // Parent: 489 bytes in 3 allocations (`Arc<Row>`, the fourteen
    // `Value`s, the one-letter `String`). Here: 40 in 1. The buffer a
    // thread packs its rows in is kept from row to row, grown to the
    // largest it packed: packing the row once first sizes it.
    chars_row(123_456, 0);
    let (row, bytes, blocks) = retained_by(|| chars_row(123_456, 0));
    assert_eq!(blocks, 1, "{bytes} bytes");
    assert!(bytes <= 64, "a chars row holds {bytes} bytes");
    assert_eq!(bytes as usize, row.resident_bytes());
    // And a clone of it is a reference count, not a copy.
    let (_clone, allocs) = allocations_during(|| row.clone());
    assert_eq!(allocs, 0);
}

#[test]
fn reading_a_committed_row_allocates_nothing() {
    let row = chars_row(123_456, 0);
    let ((), allocs) = allocations_during(|| {
        for (i, v) in row.iter().enumerate() {
            assert_eq!(row.get(i), Some(v));
        }
        assert_eq!(row.get(3).and_then(|v| v.as_text()), Some("x"));
        let [doc, ch, deleted] = row.cols([0, 3, 7]);
        assert_eq!(
            (doc.as_id(), ch.as_text(), deleted.as_bool()),
            (Some(1), Some("x"), Some(false))
        );
    });
    assert_eq!(allocs, 0);
}

#[test]
fn chars_rows_and_their_further_versions() {
    let mut t = TableStore::new(TableId(0), chars_def());
    // First version, chain slot and `chars_by_doc` entry included.
    // PR 18: 668 bytes in 4.33 allocations → 153 in 1.33. PR 21: 167 in
    // 1.33 — a 16-byte entry a row where each document's key kept a
    // `BTreeSet` of 8-byte row ids; every other index wins by more.
    // PR 23: 114 in 1.17 — the chain's 40-byte slot in a page of 256
    // where the chain tree's node took about 90. With no descriptor
    // pointer in a version: 106 in 1.17, a 32-byte slot.
    let (first, first_blocks) = apply_all(&mut t, 1, |i| chars_row(i, 0));
    assert!(first <= 110.0, "first version: {first} bytes a row");
    assert!(
        first_blocks <= 1.2,
        "first version: {first_blocks} allocations a row"
    );
    // Three further versions of every row — every neighbour-link
    // rewrite, every tombstone — the second of which spills the chain
    // out of its slot into a `Vec`. PR 18's parent: 489 bytes each (its
    // chain `Vec` of four was paid for by the first version). Since PR
    // 18: 83, of which 43 are the chain's. With no descriptor pointer:
    // 72, a version 24 bytes in the `Vec` where it was 32.
    let mut further = 0.0;
    for version in 1..=3 {
        further += apply_all(&mut t, 1 + version, |i| chars_row(i, version)).0;
    }
    let each = further / 3.0;
    assert!(each <= 75.0, "each further version: {each} bytes");
    assert_accounted(&t, (first + further) * ROWS as f64);
}

#[test]
fn an_oplog_row_with_its_two_indexes() {
    // PR 18: 990 bytes in 8.83 allocations → 481 in 3.83, with four
    // indexes. PR 21, two indexes of packed keys: 237 in 1.5. PR 23, in
    // a row slot: 185 in 1.34. In a 32-byte slot: 177 in 1.34.
    let mut t = TableStore::new(TableId(0), oplog_def());
    let (bytes, blocks) = apply_all(&mut t, 1, oplog_row);
    assert!(bytes <= 180.0, "an oplog row: {bytes} bytes");
    assert!(blocks <= 1.4, "an oplog row: {blocks} allocations");
    assert_accounted(&t, bytes * ROWS as f64);
}

#[test]
fn an_op_effects_row_with_its_index() {
    // PR 18: 852 bytes in 8.5 allocations → 345 in 3.5, with two
    // indexes. PR 21, one index of packed keys: 159 in 1.33. PR 23, in a
    // row slot: 107 in 1.17. In a 32-byte slot: 99 in 1.17.
    let mut t = TableStore::new(TableId(0), effects_def());
    let (bytes, blocks) = apply_all(&mut t, 1, effects_row);
    assert!(bytes <= 100.0, "an op_effects row: {bytes} bytes");
    assert!(blocks <= 1.2, "an op_effects row: {blocks} allocations");
    assert_accounted(&t, bytes * ROWS as f64);
}

#[test]
fn spilling_a_chain_allocates_its_vec_and_nothing_else() {
    // The first version moves out of the slot into the `Vec` with its
    // row. With write descriptors: 2 allocations — the `Vec` and a copy
    // of the first version's descriptor (the row was a reference count),
    // the original dropped.
    let mut t = TableStore::new(TableId(0), chars_def());
    t.apply(RowId(1), 1, VersionOp::Put(chars_row(1, 0)));
    let second = VersionOp::Put(chars_row(1, 1));
    let (((), bytes, _), allocs) =
        allocations_during(|| retained_by(|| t.apply(RowId(1), 2, second)));
    assert_eq!(allocs, 1);
    assert_eq!(bytes as usize, 2 * std::mem::size_of::<Version>());
}
