//! A deterministic cost receipt for the index read path: allocations
//! counted, not time measured. An index read with no own writes walks the
//! ordered index straight into its result, so what it allocates must not
//! grow with the number of rows beyond the result vector itself.

mod common;

use std::ops::Bound;

use common::alloc::{allocations_during, TrackingAlloc};
use tendax_storage::{DataType, Database, Predicate, Row, TableDef, TableId, Value};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const ROWS: u64 = 10_000;

/// `ROWS` rows under key 7 (every fifth one re-keyed there from key 8, so
/// the index holds stale entries to re-verify) spread over `ROWS`
/// distinct `seq` values, plus a neighbour document.
fn seeded() -> (Database, TableId) {
    let db = Database::open_in_memory();
    let t = db
        .create_table(
            TableDef::new("chars")
                .column("doc", DataType::Id)
                .column("seq", DataType::Int)
                .column("text", DataType::Text)
                .index("by_doc", &["doc"])
                .index("by_doc_seq", &["doc", "seq"]),
        )
        .unwrap();
    let row = |doc: u64, seq: u64| {
        Row::new(vec![
            Value::Id(doc),
            Value::Int(seq as i64),
            Value::Text("x".into()),
        ])
    };
    let mut txn = db.begin();
    let mut moved = Vec::new();
    for i in 0..ROWS {
        let doc = if i % 5 == 0 { 8 } else { 7 };
        let rid = txn.insert(t, row(doc, i)).unwrap();
        if doc == 8 {
            moved.push((rid, i));
        }
        txn.insert(t, row(9, i)).unwrap();
    }
    txn.commit().unwrap();
    let mut txn = db.begin();
    for (rid, i) in moved {
        txn.update(t, rid, row(7, i)).unwrap();
    }
    txn.commit().unwrap();
    (db, t)
}

#[test]
fn index_reads_allocate_a_constant_beyond_the_result() {
    let (db, t) = seeded();
    let txn = db.begin();
    // Warm the transaction's table-handle cache: first touch is not the
    // steady state being bounded.
    txn.index_lookup(t, "by_doc", &[Value::Id(0)]).unwrap();

    // One key: the result vector is sized from the key's row-id set.
    let (rows, allocs) =
        allocations_during(|| txn.index_lookup(t, "by_doc", &[Value::Id(7)]).unwrap());
    assert_eq!(rows.len() as u64, ROWS);
    assert!(
        allocs <= 2,
        "index_lookup over {ROWS} rows made {allocs} allocations"
    );

    // Many keys: only the result vector's amortized growth.
    let lo = vec![Value::Id(7)];
    let hi = vec![Value::Id(8)];
    let (rows, allocs) = allocations_during(|| {
        txn.index_range(t, "by_doc_seq", Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap()
    });
    assert_eq!(rows.len() as u64, ROWS);
    assert!(
        allocs <= 24,
        "index_range over {ROWS} keys made {allocs} allocations"
    );

    // Counting materializes nothing at all, whole key or prefix.
    for (pred, bound) in [
        (Predicate::Eq("doc".into(), Value::Id(7)), 4),
        (Predicate::True, 4),
    ] {
        let (n, allocs) = allocations_during(|| txn.count(t, &pred).unwrap());
        assert!(n as u64 >= ROWS);
        assert!(
            allocs <= bound,
            "count({pred:?}) over {n} rows made {allocs} allocations"
        );
    }
}

#[test]
fn a_prefix_count_allocates_nothing_per_row() {
    // The `doc` prefix of a `(doc, seq)` index, with no index of its own
    // (the shape of `count(oplog, doc = d)` over `oplog_by_doc_ts`): each
    // row is verified against its entry's key, not remembered in a set.
    let db = Database::open_in_memory();
    let t = db
        .create_table(
            TableDef::new("log")
                .column("doc", DataType::Id)
                .column("seq", DataType::Int)
                .index("by_doc_seq", &["doc", "seq"]),
        )
        .unwrap();
    let mut txn = db.begin();
    for i in 0..ROWS {
        let row = Row::new(vec![Value::Id(7), Value::Int(i as i64)]);
        txn.insert(t, row).unwrap();
    }
    txn.commit().unwrap();
    let txn = db.begin();
    let pred = Predicate::Eq("doc".into(), Value::Id(7));
    txn.count(t, &pred).unwrap();
    let (n, allocs) = allocations_during(|| txn.count(t, &pred).unwrap());
    assert_eq!(n as u64, ROWS);
    assert!(
        allocs <= 2,
        "a prefix count over {ROWS} rows made {allocs} allocations"
    );
}
