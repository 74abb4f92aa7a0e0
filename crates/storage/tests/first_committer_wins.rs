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

/// A fresh row of `links`.
fn blank() -> Row {
    Row::new(vec![
        Value::Null,
        Value::Null,
        Value::Bool(false),
        Value::Null,
    ])
}

/// `expect_unchanged` makes a commit depend on a row it does not write:
/// the commit aborts if the row gained a version after the snapshot, or
/// if it was deleted — or deleted and vacuumed away — before it. A row
/// the transaction inserted itself, or an untouched one, passes.
#[test]
fn an_expected_row_must_still_be_the_snapshot_s_put() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let expecting = |db: &Database| {
        let mut txn = db.begin();
        txn.expect_unchanged(t, rid).unwrap();
        txn.insert(t, blank()).unwrap();
        txn
    };

    // Untouched: passes.
    expecting(&db).commit().unwrap();
    // A newer version, committed after the snapshot.
    let late = expecting(&db);
    let mut b = db.begin();
    b.set(t, rid, &[("style", Value::Id(3))]).unwrap();
    b.commit().unwrap();
    assert!(is_conflict(late.commit()));
    // A row the transaction inserted passes, whatever else happens.
    let mut own = db.begin();
    let mine = own.insert(t, blank()).unwrap();
    own.expect_unchanged(t, mine).unwrap();
    own.commit().unwrap();
    // Deleted before the snapshot: the snapshot never saw it live.
    let mut del = db.begin();
    del.delete(t, rid).unwrap();
    del.commit().unwrap();
    assert!(is_conflict(expecting(&db).commit()));
    // Vacuumed away: RAM holds no chain of it at all.
    assert!(db.vacuum() > 0);
    assert!(is_conflict(expecting(&db).commit()));
    assert_eq!(db.stats().conflicts, 3);
}

/// The expected row may live in a table the transaction does not write:
/// that table is locked with the written ones and checked the same way.
#[test]
fn an_expected_row_in_an_unwritten_table_is_checked() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let other = db
        .create_table(TableDef::new("other").column("n", DataType::Int))
        .unwrap();
    let mut a = db.begin();
    a.expect_unchanged(t, rid).unwrap();
    a.insert(other, Row::new(vec![Value::Int(1)])).unwrap();
    let mut b = db.begin();
    b.delete(t, rid).unwrap();
    b.commit().unwrap();
    assert!(is_conflict(a.commit()));
    assert!(db
        .begin()
        .scan(other, &tendax_storage::Predicate::True)
        .unwrap()
        .is_empty());
}

/// An expectation writes nothing: the same insert commits the same log
/// bytes and adds the same one version with or without one.
#[test]
fn an_expectation_adds_no_log_bytes_and_no_versions() {
    let (_g, path) = tmp("expect.wal");
    let db = Database::open(&path, common::options()).unwrap();
    let (t, rid) = seed(&db);
    let versions = |db: &Database| {
        let stats = db.table_stats();
        stats.iter().find(|s| s.name == "links").unwrap().versions
    };
    let mut cost = Vec::new();
    for expect in [false, true] {
        let (bytes, records) = db.wal_size();
        let before = versions(&db);
        let mut txn = db.begin();
        if expect {
            txn.expect_unchanged(t, rid).unwrap();
        }
        txn.insert(t, blank()).unwrap();
        txn.commit().unwrap();
        let (after, after_records) = db.wal_size();
        cost.push((
            after - bytes,
            after_records - records,
            versions(&db) - before,
        ));
    }
    assert_eq!(
        cost[0], cost[1],
        "(bytes, records, versions) without and with"
    );
    assert_eq!(cost[1].2, 1);
}

/// A committed expectation holds its row against transactions that did
/// not see the commit: a delete of the row, or a second expectation of
/// it, from an older snapshot fails. A column update from that snapshot,
/// and either from a newer one, pass.
#[test]
fn an_expectation_holds_its_row_against_older_snapshots() {
    let db = Database::open_in_memory();
    let (t, rid) = seed(&db);
    let expecting = |db: &Database| {
        let mut txn = db.begin();
        txn.expect_unchanged(t, rid).unwrap();
        txn.insert(t, blank()).unwrap();
        txn
    };

    let (mut delete, second, mut update) = (db.begin(), expecting(&db), db.begin());
    expecting(&db).commit().unwrap();
    delete.delete(t, rid).unwrap();
    assert!(is_conflict(delete.commit()));
    assert!(is_conflict(second.commit()));
    update.set(t, rid, &[("style", Value::Id(3))]).unwrap();
    update.commit().unwrap();

    expecting(&db).commit().unwrap();
    let mut delete = db.begin();
    delete.delete(t, rid).unwrap();
    delete.commit().unwrap();
    assert_eq!(db.stats().conflicts, 2);
}

/// Pruning the records keeps every one a running transaction could have
/// missed; a transaction begun at an older snapshot after a prune, or
/// after a reopen, cannot delete an expected row at all.
#[test]
fn pruned_expectations_still_hold_against_older_snapshots() {
    let (_g, path) = tmp("prune.wal");
    let db = Database::open(&path, common::options()).unwrap();
    let (t, rid) = seed(&db);
    let mut rows = vec![rid];
    for _ in 0..300 {
        let mut txn = db.begin();
        rows.push(txn.insert(t, blank()).unwrap());
        txn.commit().unwrap();
    }
    let before = db.last_commit_ts();
    let expect = |rows: &[tendax_storage::RowId]| {
        let mut inserted = Vec::new();
        for &row in rows {
            let mut txn = db.begin();
            txn.expect_unchanged(t, row).unwrap();
            inserted.push(txn.insert(t, blank()).unwrap());
            txn.commit().unwrap();
        }
        inserted
    };
    // Enough expectations to prune several times while `old` runs.
    let mut old = db.begin();
    let inserted = expect(&rows);
    old.delete(t, rid).unwrap();
    assert!(is_conflict(old.commit()), "kept for the running snapshot");
    // With nothing running, the next prune drops the records.
    expect(&inserted);
    expect(&inserted[..250]);
    let mut pinned = db.begin_at(before).unwrap();
    pinned.delete(t, rows[1]).unwrap();
    assert!(is_conflict(pinned.commit()), "pruned, but below the floor");
    drop(db);

    let db = Database::open(&path, common::options()).unwrap();
    let mut pinned = db.begin_at(before).unwrap();
    pinned.delete(t, rid).unwrap();
    assert!(
        is_conflict(pinned.commit()),
        "not logged: refused after reopen"
    );
    let mut fresh = db.begin();
    fresh.delete(t, rid).unwrap();
    fresh.commit().unwrap();
}
