//! First committer wins, for every write: a transaction that writes a
//! row which gained a newer version since its snapshot aborts with
//! [`StorageError::WriteConflict`], whether it replaced the row, deleted
//! it or updated some of its columns ([`Transaction::set`], logged as the
//! columns it wrote). A column update is durable through the WAL, and
//! `begin_at` reads history under the same rule.
//!
//! [`Transaction::set`]: tendax_storage::Transaction::set

use std::path::PathBuf;

use tendax_storage::{
    ColdOptions, DataType, Database, Options, Row, StorageError, TableDef, TableId, Value, ValueRef,
};

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-fcw");
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

fn is_conflict<T: std::fmt::Debug>(r: Result<T, StorageError>) -> bool {
    matches!(r, Err(StorageError::WriteConflict { .. }))
}

/// Any newer version of a written row aborts the later committer: two
/// column updates of disjoint columns, of the same column, a column
/// update against a whole-row write in both orders, and a `begin_at`
/// transaction behind several commits.
#[test]
fn any_newer_version_aborts() {
    type Write = fn(&mut tendax_storage::Transaction, TableId, tendax_storage::RowId);
    let prev: Write = |txn, t, rid| txn.set(t, rid, &[("prev", Value::Id(10))]).unwrap();
    let next: Write = |txn, t, rid| txn.set(t, rid, &[("next", Value::Id(20))]).unwrap();
    let whole: Write = |txn, t, rid| {
        let row = Row::new(vec![
            Value::Id(30),
            Value::Id(40),
            Value::Bool(false),
            Value::Null,
        ]);
        txn.update(t, rid, row).unwrap()
    };
    for (first, second) in [(prev, next), (next, next), (whole, next), (prev, whole)] {
        let db = Database::open_in_memory();
        let (t, rid) = seed(&db);
        let (mut a, mut b) = (db.begin(), db.begin());
        first(&mut a, t, rid);
        second(&mut b, t, rid);
        let won = a.commit().unwrap();
        assert!(is_conflict(b.commit()));
        let stats = db.stats();
        assert_eq!((stats.conflicts, stats.commits_merged), (1, 0));
        assert_eq!(stats.last_commit_ts, won, "the loser committed nothing");
    }

    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let base = db.begin().snapshot_ts();
    for i in 0..5u64 {
        let mut txn = db.begin();
        txn.set(t, rid, &[("prev", Value::Id(i))]).unwrap();
        txn.commit().unwrap();
    }
    let mut lag = db.begin_at(base).unwrap();
    lag.set(t, rid, &[("next", Value::Id(99))]).unwrap();
    assert!(is_conflict(lag.commit()));
    assert_eq!(value_at(&db, t, rid, 0), Value::Id(4));
    assert_eq!(value_at(&db, t, rid, 1), Value::Null);
}

/// A column update racing a committed delete aborts.
#[test]
fn delete_vs_patch_aborts() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);

    let mut a = db.begin();
    let mut b = db.begin();
    a.delete(t, rid).unwrap();
    b.set(t, rid, &[("next", Value::Id(20))]).unwrap();
    a.commit().unwrap();
    assert!(is_conflict(b.commit()));
    assert!(db.begin().get(t, rid).unwrap().is_none());
}

/// A transaction whose snapshot predates the cold floor still reads a
/// row whose whole history, its delete included, went to a cold run —
/// and writing it is a conflict: the delete is newer than its snapshot.
/// RAM holds no chain of the row, so nothing newer is found there.
#[test]
fn a_write_over_a_delete_the_cold_tier_took_conflicts() {
    let dir = TestDir::new("tendax-fcw-cold");
    let options = Options {
        cold_storage: Some(ColdOptions::default()),
        ..Default::default()
    };
    let db = Database::open(dir.file("cold.wal"), options).unwrap();
    let (t, rid) = seed(&db);
    let born = db.last_commit_ts();
    let mut txn = db.begin();
    txn.delete(t, rid).unwrap();
    txn.commit().unwrap();
    assert_eq!(db.vacuum(), 2, "the row's whole history was demoted");

    let mut pinned = db.begin_at(born).unwrap();
    assert!(pinned.get(t, rid).unwrap().is_some());
    pinned.set(t, rid, &[("next", Value::Id(2))]).unwrap();
    assert!(is_conflict(pinned.commit()));
    assert_eq!(db.stats().conflicts, 1);
    assert!(db.begin().get(t, rid).unwrap().is_none(), "still deleted");
}

/// A column update logs the columns it wrote, and replay composes them
/// onto the row they replaced: serialized updates, one of them two
/// `set` calls on one row in one transaction, read back after a reopen.
#[test]
fn a_patch_survives_reopen() {
    let (_g, path) = tmp("patch.wal");
    {
        let db = Database::open(&path, common::options()).unwrap();
        let (t, rid) = seed(&db);
        let mut a = db.begin();
        a.set(t, rid, &[("prev", Value::Id(10))]).unwrap();
        a.commit().unwrap();
        let mut b = db.begin();
        b.set(t, rid, &[("next", Value::Id(20))]).unwrap();
        b.set(t, rid, &[("style", Value::Id(5)), ("next", Value::Id(21))])
            .unwrap();
        b.commit().unwrap();
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
    assert_eq!(row.get(1), Some(ValueRef::Id(21)));
    assert_eq!(row.get(2), Some(ValueRef::Bool(false)));
    assert_eq!(row.get(3), Some(ValueRef::Id(5)));
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
        txn.set(t, rid, &[("prev", Value::Id(i))]).unwrap();
        txn.commit().unwrap();
    }
    let pruned = db.vacuum();
    assert!(pruned > 0, "vacuum had versions to prune");
    let err = db.begin_at(1).unwrap_err();
    assert!(matches!(err, StorageError::SnapshotTooOld { .. }), "{err}");
}
