//! Property-based tests for the storage engine.
//!
//! These check the engine's core laws against randomized inputs: value
//! ordering, snapshot isolation vs. a model, and index/scan agreement.
//! (The WAL codec's round-trip, truncation and bit-flip properties live
//! in `wal_format.rs`.)

use std::collections::BTreeMap;

use proptest::prelude::*;

use tendax_storage::row::Row;
use tendax_storage::schema::TableDef;
use tendax_storage::value::{DataType, Value};
use tendax_storage::{Database, Predicate, RowId};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::Id),
        ".{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        any::<i64>().prop_map(Value::Timestamp),
        any::<f64>().prop_map(Value::Float),
    ]
}

proptest! {
    /// `Value`'s ordering is a genuine total order (indexes rely on it):
    /// antisymmetric, transitive, and consistent with equality.
    #[test]
    fn value_ordering_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Reflexivity / equality consistency.
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(&b) == Ordering::Equal, a == b);
        // Transitivity.
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }
}

// ----------------------------------------------------- engine vs. a model

/// A scripted operation against one table with an integer payload.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Update the k-th live row (modulo) to carry the payload.
    Update(usize, i64),
    /// Delete the k-th live row (modulo).
    Delete(usize),
    Commit,
    Abort,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(Op::Insert),
        (any::<usize>(), any::<i64>()).prop_map(|(k, v)| Op::Update(k, v)),
        any::<usize>().prop_map(Op::Delete),
        Just(Op::Commit),
        Just(Op::Abort),
    ]
}

fn payload_table() -> TableDef {
    TableDef::new("t")
        .column("payload", DataType::Int)
        .index("by_payload", &["payload"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Run a random script of transactions against the engine and an
    /// in-memory model; committed state must match after every commit.
    #[test]
    fn engine_matches_model(script in proptest::collection::vec(arb_op(), 1..60)) {
        let db = Database::open_in_memory();
        let t = db.create_table(payload_table()).unwrap();

        let mut model: BTreeMap<RowId, i64> = BTreeMap::new();
        let mut pending: BTreeMap<RowId, Option<i64>> = BTreeMap::new(); // None = delete
        let mut txn = db.begin();

        for op in script {
            // Live rows as the transaction sees them.
            let live: Vec<RowId> = {
                let mut l: BTreeMap<RowId, i64> = model.clone();
                for (rid, p) in &pending {
                    match p {
                        Some(v) => { l.insert(*rid, *v); }
                        None => { l.remove(rid); }
                    }
                }
                l.keys().copied().collect()
            };
            match op {
                Op::Insert(v) => {
                    let rid = txn.insert(t, Row::new(vec![Value::Int(v)])).unwrap();
                    pending.insert(rid, Some(v));
                }
                Op::Update(k, v) => {
                    if !live.is_empty() {
                        let rid = live[k % live.len()];
                        txn.set(t, rid, &[("payload", Value::Int(v))]).unwrap();
                        pending.insert(rid, Some(v));
                    }
                }
                Op::Delete(k) => {
                    if !live.is_empty() {
                        let rid = live[k % live.len()];
                        txn.delete(t, rid).unwrap();
                        pending.insert(rid, None);
                    }
                }
                Op::Commit => {
                    txn.commit().unwrap();
                    for (rid, p) in std::mem::take(&mut pending) {
                        match p {
                            Some(v) => { model.insert(rid, v); }
                            None => { model.remove(&rid); }
                        }
                    }
                    // Engine and model agree on committed state.
                    let got: BTreeMap<RowId, i64> = db
                        .begin()
                        .scan(t, &Predicate::True)
                        .unwrap()
                        .into_iter()
                        .map(|(rid, r)| (rid, r.get(0).unwrap().as_int().unwrap()))
                        .collect();
                    prop_assert_eq!(&got, &model);
                    txn = db.begin();
                }
                Op::Abort => {
                    txn.abort();
                    pending.clear();
                    let got: BTreeMap<RowId, i64> = db
                        .begin()
                        .scan(t, &Predicate::True)
                        .unwrap()
                        .into_iter()
                        .map(|(rid, r)| (rid, r.get(0).unwrap().as_int().unwrap()))
                        .collect();
                    prop_assert_eq!(&got, &model);
                    txn = db.begin();
                }
            }
        }
    }

    /// Index scans return exactly what an exhaustive scan returns.
    #[test]
    fn index_scan_agrees_with_full_scan(values in proptest::collection::vec(-20i64..20, 1..80), probe in -20i64..20) {
        let db = Database::open_in_memory();
        let t = db.create_table(payload_table()).unwrap();
        let mut txn = db.begin();
        for v in &values {
            txn.insert(t, Row::new(vec![Value::Int(*v)])).unwrap();
        }
        txn.commit().unwrap();

        let reader = db.begin();
        // Uses the planner (index path for Eq on indexed col).
        let via_planner = reader
            .scan(t, &Predicate::Eq("payload".into(), Value::Int(probe)))
            .unwrap();
        // Force a full scan with a predicate the planner can't index.
        let via_full = reader
            .scan(
                t,
                &Predicate::Between("payload".into(), Value::Int(probe), Value::Int(probe)),
            )
            .unwrap();
        prop_assert_eq!(via_planner.len(), via_full.len());
        prop_assert_eq!(
            via_planner.len(),
            values.iter().filter(|v| **v == probe).count()
        );
    }

    /// Vacuum never changes what the latest snapshot sees.
    #[test]
    fn vacuum_preserves_latest_snapshot(updates in proptest::collection::vec(any::<i64>(), 1..40)) {
        let db = Database::open_in_memory();
        let t = db.create_table(payload_table()).unwrap();
        let mut txn = db.begin();
        let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
        txn.commit().unwrap();
        for v in &updates {
            let mut w = db.begin();
            w.set(t, rid, &[("payload", Value::Int(*v))]).unwrap();
            w.commit().unwrap();
        }
        let before: Vec<_> = db.begin().scan(t, &Predicate::True).unwrap();
        db.vacuum();
        let after: Vec<_> = db.begin().scan(t, &Predicate::True).unwrap();
        prop_assert_eq!(before, after);
    }
}
