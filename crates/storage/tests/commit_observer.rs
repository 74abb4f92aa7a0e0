//! The commit observer's contract ([`tendax_storage::observer`]): one
//! call per non-empty commit and none for anything else, each row's
//! replaced and published versions, the call before the commit is
//! visible, one commit at a time in timestamp order, and a registered
//! observer keeps nothing of the database alive.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tendax_storage::{
    ColdOptions, CommitObserver, DataType, Database, Options, Replaced, Row, RowId, SharedRow,
    StorageError, TableDef, TableId, Ts, Value, WriteSet,
};

mod common;
use common::TestDir;

/// What a row was before a commit, copied out of the borrowed view.
#[derive(Debug, Clone, PartialEq)]
enum Was {
    Inserted,
    Row(Vec<Option<u64>>),
}

/// One row of a write set, copied out of the borrowed view.
#[derive(Debug, Clone, PartialEq)]
struct Written {
    table: TableId,
    row: RowId,
    replaced: Was,
    published: Option<Vec<Option<u64>>>,
}

/// Keeps every call it gets.
#[derive(Default)]
struct Recorder {
    calls: Mutex<Vec<(Ts, Vec<Written>)>>,
}

impl CommitObserver for Recorder {
    fn committed(&self, commit_ts: Ts, writes: &WriteSet<'_>) {
        let rows = (writes.tables())
            .flat_map(|t| t.rows())
            .map(|w| Written {
                table: w.table,
                row: w.row,
                replaced: match w.replaced {
                    Replaced::Inserted => Was::Inserted,
                    Replaced::Version(row) => Was::Row(ids(row)),
                },
                published: w.published.map(ids),
            })
            .collect();
        self.calls.lock().unwrap().push((commit_ts, rows));
    }
}

impl Recorder {
    fn on(db: &Database) -> Arc<Recorder> {
        let recorder = Arc::new(Recorder::default());
        let observer: Arc<dyn CommitObserver> = recorder.clone();
        db.observe_commits(&observer);
        recorder
    }

    fn calls(&self) -> Vec<(Ts, Vec<Written>)> {
        self.calls.lock().unwrap().clone()
    }
}

fn links() -> TableDef {
    TableDef::new("links")
        .nullable_column("prev", DataType::Id)
        .nullable_column("next", DataType::Id)
}

fn link_row(prev: Option<u64>, next: Option<u64>) -> Row {
    let id = |v: Option<u64>| v.map_or(Value::Null, Value::Id);
    Row::new(vec![id(prev), id(next)])
}

fn insert(db: &Database, t: TableId, row: Row) -> (RowId, Ts) {
    let mut txn = db.begin();
    let rid = txn.insert(t, row).unwrap();
    (rid, txn.commit().unwrap())
}

fn ids(row: &SharedRow) -> Vec<Option<u64>> {
    row.iter().map(|v| v.as_id()).collect()
}

#[test]
fn one_call_per_non_empty_commit_and_none_otherwise() {
    let db = Database::open_in_memory();
    let t = db.create_table(links()).unwrap();
    let seen = Recorder::on(&db);

    let (rid, ts) = insert(&db, t, link_row(None, None));
    let calls = seen.calls();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0].0, ts, "the call names the commit's timestamp");
    assert_eq!(calls[0].1.len(), 1);
    assert_eq!((calls[0].1[0].table, calls[0].1[0].row), (t, rid));

    // An empty commit, an abort and a dropped transaction say nothing.
    db.begin().commit().unwrap();
    let mut aborted = db.begin();
    aborted.insert(t, link_row(Some(1), None)).unwrap();
    aborted.abort();
    let mut dropped = db.begin();
    dropped.insert(t, link_row(Some(2), None)).unwrap();
    drop(dropped);
    assert_eq!(seen.calls().len(), 1);

    // First committer wins: the loser is never announced.
    let mut a = db.begin();
    let mut b = db.begin();
    a.set(t, rid, &[("prev", Value::Id(10))]).unwrap();
    b.set(t, rid, &[("prev", Value::Id(20))]).unwrap();
    let winner = a.commit().unwrap();
    assert!(matches!(
        b.commit().unwrap_err(),
        StorageError::WriteConflict { .. }
    ));
    let calls = seen.calls();
    assert_eq!(calls.len(), 2);
    assert_eq!(calls[1].0, winner);
}

#[test]
fn put_and_patch_deliver_the_published_row_and_delete_the_removed_one() {
    let db = Database::open_in_memory();
    let t = db.create_table(links()).unwrap();
    let (rid, _) = insert(&db, t, link_row(None, None));
    let seen = Recorder::on(&db);

    // Two column updates, one after the other: each publishes the row
    // it replaced with its column changed.
    let mut a = db.begin();
    a.set(t, rid, &[("prev", Value::Id(10))]).unwrap();
    a.commit().unwrap();
    let mut b = db.begin();
    b.set(t, rid, &[("next", Value::Id(20))]).unwrap();
    b.commit().unwrap();

    // An insert, then a delete of the updated row.
    let (other, _) = insert(&db, t, link_row(Some(7), Some(8)));
    let mut txn = db.begin();
    txn.delete(t, rid).unwrap();
    txn.commit().unwrap();

    let rows: Vec<_> = seen
        .calls()
        .into_iter()
        .flat_map(|(_, writes)| writes)
        .map(|w| (w.row, w.replaced, w.published))
        .collect();
    let row = |prev, next| vec![prev, next];
    assert_eq!(
        rows,
        [
            (rid, Was::Row(row(None, None)), Some(row(Some(10), None))),
            (
                rid,
                Was::Row(row(Some(10), None)),
                Some(row(Some(10), Some(20)))
            ),
            (other, Was::Inserted, Some(row(Some(7), Some(8)))),
            (rid, Was::Row(row(Some(10), Some(20))), None),
        ]
    );
}

#[test]
fn a_write_over_history_the_cold_tier_took_conflicts_unobserved() {
    let dir = TestDir::new("tendax-observer-cold");
    let options = Options {
        cold_storage: Some(ColdOptions::default()),
        ..Default::default()
    };
    let db = Database::open(dir.file("cold.wal"), options).unwrap();
    let t = db.create_table(links()).unwrap();
    let (rid, born) = insert(&db, t, link_row(Some(1), None));
    let mut txn = db.begin();
    txn.delete(t, rid).unwrap();
    txn.commit().unwrap();
    // The demoting vacuum moves the row's whole history, the tombstone
    // included, into a cold run: RAM holds no version of it.
    assert_eq!(db.vacuum(), 2);
    let seen = Recorder::on(&db);

    // A transaction pinned below the delete still reads the row, from
    // the cold tier, but may not write it: the delete is newer than its
    // snapshot. So every write the observer hears of replaced a version
    // RAM holds.
    let mut pinned = db.begin_at(born).unwrap();
    assert!(pinned.get(t, rid).unwrap().is_some());
    pinned.set(t, rid, &[("next", Value::Id(2))]).unwrap();
    let err = pinned.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");
    assert!(seen.calls().is_empty());
}

/// Announces each commit on a channel and waits to be let go.
struct Gate {
    announce: Mutex<Sender<Ts>>,
    release: Mutex<Receiver<()>>,
}

impl CommitObserver for Gate {
    fn committed(&self, commit_ts: Ts, _: &WriteSet<'_>) {
        self.announce.lock().unwrap().send(commit_ts).unwrap();
        self.release.lock().unwrap().recv().unwrap();
    }
}

#[test]
fn the_call_happens_before_the_commit_is_visible() {
    let db = Database::open_in_memory();
    let t = db.create_table(links()).unwrap();
    let (announce, announced) = channel();
    let (release, released) = channel();
    let gate: Arc<dyn CommitObserver> = Arc::new(Gate {
        announce: Mutex::new(announce),
        release: Mutex::new(released),
    });
    db.observe_commits(&gate);

    std::thread::scope(|s| {
        let committer = s.spawn(|| insert(&db, t, link_row(None, None)).1);
        // The observer is parked inside `commit()`: the commit is
        // applied, but no snapshot may contain it yet.
        let commit_ts = announced.recv().unwrap();
        assert!(db.begin().snapshot_ts() < commit_ts);
        assert!(db.last_commit_ts() < commit_ts);
        release.send(()).unwrap();
        assert_eq!(committer.join().unwrap(), commit_ts);
        // `commit()` has returned: every later snapshot contains it.
        assert!(db.begin().snapshot_ts() >= commit_ts);
    });
}

/// Observers are called one commit at a time, in timestamp order: while
/// a commit is parked inside the observer, a commit to another table
/// does not reach it, and it does once the parked one is let go, with a
/// higher timestamp.
#[test]
fn a_commit_reaches_the_observer_only_after_the_one_parked_inside_it() {
    let db = Database::open_in_memory();
    let a = db.create_table(links()).unwrap();
    let b = db
        .create_table(TableDef::new("other").nullable_column("prev", DataType::Id))
        .unwrap();
    let (announce, announced) = channel();
    let (release, released) = channel();
    let gate: Arc<dyn CommitObserver> = Arc::new(Gate {
        announce: Mutex::new(announce),
        release: Mutex::new(released),
    });
    db.observe_commits(&gate);

    std::thread::scope(|s| {
        // Dropped if an assertion fails, which lets every parked commit go.
        let release = release;
        let first = s.spawn(|| insert(&db, a, link_row(None, None)).1);
        let parked = announced.recv().unwrap();
        let second = s.spawn(|| insert(&db, b, Row::new(vec![Value::Null])).1);
        let beside = announced.recv_timeout(Duration::from_millis(100));
        assert!(
            beside.is_err(),
            "commit {beside:?} reached the observer while {parked} was parked in it"
        );
        release.send(()).unwrap();
        let next = announced.recv().unwrap();
        assert!(next > parked, "{next} was observed after {parked}");
        release.send(()).unwrap();
        assert_eq!(first.join().unwrap(), parked);
        assert_eq!(second.join().unwrap(), next);
    });
}

/// Per table: the newest commit seen (folded with `max`), how many, and
/// whether they arrived in timestamp order.
#[derive(Default)]
struct Stamps {
    tables: Mutex<BTreeMap<TableId, (Ts, usize, bool)>>,
}

impl CommitObserver for Stamps {
    fn committed(&self, commit_ts: Ts, writes: &WriteSet<'_>) {
        let mut tables = self.tables.lock().unwrap();
        let table = writes.tables().next().unwrap().table();
        let (newest, calls, ordered) = tables.entry(table).or_insert((0, 0, true));
        *ordered &= commit_ts > *newest;
        *newest = (*newest).max(commit_ts);
        *calls += 1;
    }
}

#[test]
fn commits_to_disjoint_tables_all_arrive_and_stamps_only_move_forward() {
    const COMMITS: usize = 200;
    let db = Database::open_in_memory();
    let left = db.create_table(links()).unwrap();
    let right = db
        .create_table(TableDef::new("other").nullable_column("prev", DataType::Id))
        .unwrap();
    let stamps = Arc::new(Stamps::default());
    let observer: Arc<dyn CommitObserver> = stamps.clone();
    db.observe_commits(&observer);

    let last: Vec<Ts> = std::thread::scope(|s| {
        let writers = [
            s.spawn(|| {
                (0..COMMITS)
                    .map(|_| insert(&db, left, link_row(None, None)).1)
                    .max()
            }),
            s.spawn(|| {
                (0..COMMITS)
                    .map(|_| insert(&db, right, Row::new(vec![Value::Null])).1)
                    .max()
            }),
        ];
        writers
            .into_iter()
            .map(|w| w.join().unwrap().unwrap())
            .collect()
    });

    let tables = stamps.tables.lock().unwrap();
    // Commits run one at a time, so each table's arrive in order.
    assert_eq!(tables[&left], (last[0], COMMITS, true));
    assert_eq!(tables[&right], (last[1], COMMITS, true));
    assert_eq!(
        tables.values().map(|t| t.0).max().unwrap(),
        db.last_commit_ts()
    );
}

/// Open file descriptors of this process that point at `path`.
#[cfg(target_os = "linux")]
fn open_handles(path: &std::path::Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target == path)
        .count()
}

#[test]
fn replay_calls_nobody_and_an_observer_does_not_keep_the_database_open() {
    let dir = TestDir::new("tendax-observer");
    let path = dir.file("observed.wal");
    let db = Database::open(&path, common::options()).unwrap();
    let t = db.create_table(links()).unwrap();
    let first = Recorder::on(&db);
    let rows: Vec<RowId> = (0..3)
        .map(|i| insert(&db, t, link_row(Some(i), None)).0)
        .collect();
    assert_eq!(first.calls().len(), 3);

    // The last handle goes while the observer is still registered (and
    // still alive here): the database closes all the same.
    #[cfg(target_os = "linux")]
    assert!(open_handles(&path) > 0);
    drop(db);
    #[cfg(target_os = "linux")]
    assert_eq!(open_handles(&path), 0, "the WAL file is released");

    let db = Database::open(&path, common::options()).unwrap();
    let second = Recorder::on(&db);
    let reader = db.begin();
    for (i, rid) in rows.iter().enumerate() {
        let row = reader.get(t, *rid).unwrap().unwrap();
        assert_eq!(ids(&row), vec![Some(i as u64), None]);
    }
    assert_eq!(first.calls().len(), 3, "a replay is not a commit");
    assert!(second.calls().is_empty());

    // An observer nobody holds is skipped, not called.
    drop(second);
    insert(&db, t, link_row(None, None));
    assert_eq!(first.calls().len(), 3, "the old database's observer");
}
