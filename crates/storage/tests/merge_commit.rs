//! Commutative chain-neighborhood commits ([`Transaction::set_with_anchors`]).
//!
//! First-committer-wins is exact for plain writes, but the TeNDaX edit
//! pattern — concurrent editors splicing around *adjacent* characters —
//! keeps writing disjoint link fields of the same shared row. These
//! tests pin the merge semantics: disjoint descriptors (no shared
//! columns, no shared anchors) compose instead of aborting; any overlap,
//! undescribed competitor, or delete still aborts; merged commits are
//! durable through the WAL; and the concurrent merged outcome equals the
//! serialized execution.

use std::path::PathBuf;

use tendax_storage::{DataType, Database, Row, StorageError, TableDef, TableId, Value, ValueRef};

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-merge");
    let p = dir.file(name);
    (dir, p)
}

/// A miniature `chars`-shaped table: two link columns, a tombstone flag
/// and a style column.
fn link_table() -> TableDef {
    TableDef::new("links")
        .nullable_column("prev", DataType::Id)
        .nullable_column("next", DataType::Id)
        .column("deleted", DataType::Bool)
        .nullable_column("style", DataType::Id)
}

fn seed(db: &Database) -> (TableId, tendax_storage::RowId) {
    let t = db.create_table(link_table()).unwrap();
    let mut txn = db.begin();
    let rid = txn
        .insert(
            t,
            Row::new(vec![
                Value::Null,
                Value::Null,
                Value::Bool(false),
                Value::Null,
            ]),
        )
        .unwrap();
    txn.commit().unwrap();
    (t, rid)
}

fn value_at(db: &Database, t: TableId, rid: tendax_storage::RowId, col: usize) -> Value {
    db.begin()
        .get(t, rid)
        .unwrap()
        .unwrap()
        .get(col)
        .unwrap()
        .to_value()
}

/// Disjoint columns + disjoint anchors: the later committer merges its
/// delta onto the earlier one's version, both survive, and the engine
/// counts the merge (not a conflict).
#[test]
fn disjoint_descriptors_merge() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    let mut a = db.begin();
    let mut b = db.begin();
    a.set_with_anchors(t, rid, &[("prev", Value::Id(10))], &[1])
        .unwrap();
    b.set_with_anchors(t, rid, &[("next", Value::Id(20))], &[2])
        .unwrap();
    a.commit().unwrap();
    b.commit().unwrap();

    assert_eq!(
        value_at(&db, t, rid, 0),
        Value::Id(10),
        "first writer's column"
    );
    assert_eq!(
        value_at(&db, t, rid, 1),
        Value::Id(20),
        "second writer's column"
    );

    let stats = db.stats();
    assert_eq!(stats.commits_merged, 1);
    assert_eq!(stats.merge_fields_applied, 1);
    assert_eq!(stats.conflicts, 0);
    assert_eq!(stats.write_conflicts_true_overlap, 0);
}

/// Same column from both sides is a true overlap: the second committer
/// aborts, and the abort is counted as a *true* overlap, not an FCW
/// casualty of row granularity.
#[test]
fn field_overlap_aborts() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    let mut a = db.begin();
    let mut b = db.begin();
    a.set_with_anchors(t, rid, &[("next", Value::Id(10))], &[1])
        .unwrap();
    b.set_with_anchors(t, rid, &[("next", Value::Id(20))], &[2])
        .unwrap();
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");

    let stats = db.stats();
    assert_eq!(stats.conflicts, 1);
    assert_eq!(stats.write_conflicts_true_overlap, 1);
    assert_eq!(stats.commits_merged, 0);
    assert_eq!(
        value_at(&db, t, rid, 1),
        Value::Id(10),
        "first committer won"
    );
}

/// Disjoint columns but a shared anchor: the writes touch different
/// fields yet depend on the same logical chain edge, so they do not
/// commute and the second committer aborts.
#[test]
fn anchor_overlap_aborts() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    let mut a = db.begin();
    let mut b = db.begin();
    a.set_with_anchors(t, rid, &[("prev", Value::Id(10))], &[7])
        .unwrap();
    b.set_with_anchors(t, rid, &[("next", Value::Id(20))], &[7])
        .unwrap();
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");
    assert_eq!(db.stats().write_conflicts_true_overlap, 1);
}

/// A described write cannot merge across an *undescribed* competitor
/// (wholesale `set`/`update`): there is no way to prove the full-row
/// write left our columns alone. And an undescribed write never merges
/// at all — plain first-committer-wins, in both orders.
#[test]
fn plain_writes_never_merge() {
    // Plain first, patch second.
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let mut a = db.begin();
    let mut b = db.begin();
    a.set(t, rid, &[("prev", Value::Id(10))]).unwrap();
    b.set_with_anchors(t, rid, &[("next", Value::Id(20))], &[2])
        .unwrap();
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");
    assert_eq!(db.stats().write_conflicts_true_overlap, 1);

    // Patch first, plain second: the plain write keeps exact FCW and the
    // descriptor path is never consulted.
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let mut a = db.begin();
    let mut b = db.begin();
    a.set_with_anchors(t, rid, &[("prev", Value::Id(10))], &[1])
        .unwrap();
    b.set(t, rid, &[("next", Value::Id(20))]).unwrap();
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");
    let stats = db.stats();
    assert_eq!(stats.conflicts, 1);
    assert_eq!(
        stats.write_conflicts_true_overlap, 0,
        "plain FCW, not a descriptor refusal"
    );
}

/// A delete is never mergeable: a patch racing a committed delete
/// aborts no matter how disjoint its descriptor is.
#[test]
fn delete_vs_patch_aborts() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    let mut a = db.begin();
    let mut b = db.begin();
    a.delete(t, rid).unwrap();
    b.set_with_anchors(t, rid, &[("next", Value::Id(20))], &[2])
        .unwrap();
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");
    assert_eq!(db.stats().write_conflicts_true_overlap, 1);
}

/// Merges chain: a laggard pinned far in the past merges across
/// *several* described commits, as long as every one of them is
/// disjoint from it.
#[test]
fn laggard_merges_across_many_commits() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let base = db.begin().snapshot_ts();

    for i in 0..5u64 {
        let mut txn = db.begin();
        txn.set_with_anchors(t, rid, &[("prev", Value::Id(i))], &[1])
            .unwrap();
        txn.commit().unwrap();
    }

    // The laggard began (logically) before all five: begin_at pins its
    // base, and its disjoint column merges across the whole window.
    let mut lag = db.begin_at(base).unwrap();
    lag.set_with_anchors(t, rid, &[("next", Value::Id(99))], &[2])
        .unwrap();
    lag.commit().unwrap();

    assert_eq!(
        value_at(&db, t, rid, 0),
        Value::Id(4),
        "newest prev survives"
    );
    assert_eq!(
        value_at(&db, t, rid, 1),
        Value::Id(99),
        "laggard's next applied"
    );
    assert_eq!(db.stats().commits_merged, 1);
}

/// Repeated described updates of the same row within one transaction
/// union their descriptors and still merge as one write.
#[test]
fn descriptors_union_within_one_txn() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    let mut a = db.begin();
    let mut b = db.begin();
    a.set_with_anchors(t, rid, &[("prev", Value::Id(1))], &[1])
        .unwrap();
    a.set_with_anchors(t, rid, &[("prev", Value::Id(2))], &[1])
        .unwrap();
    b.set_with_anchors(t, rid, &[("next", Value::Id(3))], &[2])
        .unwrap();
    b.set_with_anchors(t, rid, &[("style", Value::Id(4))], &[])
        .unwrap();
    a.commit().unwrap();
    b.commit().unwrap();

    assert_eq!(value_at(&db, t, rid, 0), Value::Id(2));
    assert_eq!(value_at(&db, t, rid, 1), Value::Id(3));
    assert_eq!(value_at(&db, t, rid, 3), Value::Id(4));
    let stats = db.stats();
    assert_eq!(stats.commits_merged, 1);
    assert_eq!(stats.merge_fields_applied, 2, "next + style replayed");
}

/// The merged row — not the stale buffered one — is what the WAL logs:
/// after a crash-free reopen both writers' columns are still there, and
/// the replayed chain merges exactly as the live engine did.
#[test]
fn merged_commit_survives_reopen() {
    let (_g, path) = tmp("merge.wal");
    {
        let db = Database::open(&path, common::options()).unwrap();
        let (t, rid) = seed(&db);
        let mut a = db.begin();
        let mut b = db.begin();
        a.set_with_anchors(t, rid, &[("prev", Value::Id(10))], &[1])
            .unwrap();
        b.set_with_anchors(t, rid, &[("next", Value::Id(20))], &[2])
            .unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(db.stats().commits_merged, 1);
    }
    let db = Database::open(&path, common::options()).unwrap();
    let t = db.table_id("links").unwrap();
    let rows = db
        .begin()
        .scan(t, &tendax_storage::Predicate::True)
        .unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0].1;
    assert_eq!(row.get(0), Some(ValueRef::Id(10)));
    assert_eq!(row.get(1), Some(ValueRef::Id(20)));

    // The recovered chain still carries descriptors: a pinned laggard
    // can merge across the replayed commits too.
    let (rid, base) = {
        let txn = db.begin();
        (rows[0].0, txn.snapshot_ts())
    };
    let mut c = db.begin();
    c.set_with_anchors(t, rid, &[("style", Value::Id(5))], &[])
        .unwrap();
    c.commit().unwrap();
    let mut lag = db.begin_at(base).unwrap();
    lag.set_with_anchors(t, rid, &[("deleted", Value::Bool(true))], &[])
        .unwrap();
    lag.commit().unwrap();
    assert_eq!(value_at(&db, t, rid, 3), Value::Id(5));
    assert_eq!(value_at(&db, t, rid, 2), Value::Bool(true));
}

/// Convergence oracle: the concurrent (merged) execution produces the
/// byte-identical row the serialized execution produces, for every
/// interleaving of three disjoint writers.
#[test]
fn concurrent_merge_equals_serialized() {
    let writes: [(&str, Value, u64); 3] = [
        ("prev", Value::Id(11), 1),
        ("next", Value::Id(22), 2),
        ("style", Value::Id(33), 3),
    ];
    // Serialized reference.
    let reference = {
        let db = Database::open_in_memory();
        let (t, rid) = seed(&db);
        for (col, val, anchor) in &writes {
            let mut txn = db.begin();
            txn.set_with_anchors(t, rid, &[(col, val.clone())], &[*anchor])
                .unwrap();
            txn.commit().unwrap();
        }
        db.begin().get(t, rid).unwrap().unwrap().to_row()
    };
    // Every commit order of three concurrent transactions.
    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let db = Database::open_in_memory();
        let (t, rid) = seed(&db);
        let mut txns: Vec<_> = (0..3).map(|_| Some(db.begin())).collect();
        for (i, txn) in txns.iter_mut().enumerate() {
            let (col, val, anchor) = &writes[i];
            txn.as_mut()
                .unwrap()
                .set_with_anchors(t, rid, &[(col, val.clone())], &[*anchor])
                .unwrap();
        }
        for &i in &order {
            txns[i].take().unwrap().commit().unwrap();
        }
        let got = db.begin().get(t, rid).unwrap().unwrap().to_row();
        assert_eq!(got.values(), reference.values(), "order {order:?} diverged");
        assert_eq!(db.stats().commits_merged, 2, "later two commits merged");
    }
}

/// `begin_at` contract: the snapshot clamps to the watermark, and a
/// snapshot below the vacuum floor is refused rather than silently
/// reading pruned history.
#[test]
fn begin_at_clamps_and_respects_vacuum_floor() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    // Clamp: asking for the far future reads as of "now".
    let txn = db.begin_at(u64::MAX).unwrap();
    assert!(txn.get(t, rid).unwrap().is_some());
    let now = txn.snapshot_ts();
    drop(txn);
    assert!(now < u64::MAX);

    // Pile up superseded versions, vacuum them away, then ask for a
    // pre-vacuum snapshot.
    for i in 0..8u64 {
        let mut txn = db.begin();
        txn.set_with_anchors(t, rid, &[("prev", Value::Id(i))], &[1])
            .unwrap();
        txn.commit().unwrap();
    }
    let pruned = db.vacuum();
    assert!(pruned > 0, "vacuum had versions to prune");
    let err = db.begin_at(1).unwrap_err();
    assert!(matches!(err, StorageError::SnapshotTooOld { .. }), "{err}");
}
