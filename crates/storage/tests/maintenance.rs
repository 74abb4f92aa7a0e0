//! Crash-injection and stress tests for the copy/swap checkpoint and the
//! background maintenance subsystem.
//!
//! The checkpoint has two phases: a *copy* phase (snapshot the engine
//! state under the exclusive commit latch, start a rewrite) and a *swap*
//! phase
//! (write the snapshot to a temp file, atomically rename it over the
//! log, splice commits that landed mid-rewrite onto the new tail). A
//! crash at any point must leave the log recoverable to either the
//! pre-checkpoint state or the post-checkpoint state — never a hybrid.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tendax_storage::{
    DataType, Database, MaintenanceOptions, Options, Predicate, Row, TableDef, Value,
};

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-maint");
    let p = dir.file(name);
    (dir, p)
}

fn table_def() -> TableDef {
    TableDef::new("t").column("seq", DataType::Int)
}

fn commit_seq(db: &Database, t: tendax_storage::TableId, seq: i64) {
    let mut txn = db.begin();
    txn.insert(t, Row::new(vec![Value::Int(seq)])).unwrap();
    txn.commit().unwrap();
}

fn seqs(db: &Database, t: tendax_storage::TableId) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .begin()
        .scan(t, &Predicate::True)
        .unwrap()
        .iter()
        .map(|(_, r)| r.get(0).unwrap().as_int().unwrap())
        .collect();
    out.sort_unstable();
    out
}

/// Crash in the swap phase *before* the rename: the temp file exists
/// (possibly torn) but the old log is untouched. Recovery must ignore
/// the temp file and yield exactly the pre-checkpoint state.
#[test]
fn crash_before_rename_recovers_pre_checkpoint_state() {
    let (_dir, path) = tmp("pre-rename.wal");
    let n = 10i64;
    {
        let db = Database::open(&path, common::options()).unwrap();
        let t = db.create_table(table_def()).unwrap();
        for i in 0..n {
            commit_seq(&db, t, i);
        }
    }
    // Back up the log as it stood before the checkpoint, then run a
    // checkpoint so we have realistic snapshot bytes for the temp file.
    let pre_checkpoint = std::fs::read(&path).unwrap();
    {
        let db = Database::open(&path, common::options()).unwrap();
        db.checkpoint().unwrap();
    }
    let snapshot = std::fs::read(&path).unwrap();

    // Simulate the crash: old log restored, temp file present and torn
    // (the rewrite wrote part of the snapshot, then the process died
    // before the atomic rename).
    std::fs::write(&path, &pre_checkpoint).unwrap();
    let tmp_path = path.with_extension("wal.tmp");
    std::fs::write(&tmp_path, &snapshot[..snapshot.len() / 2]).unwrap();

    let db = Database::open(&path, common::options()).unwrap();
    let t = db.table_id("t").unwrap();
    assert_eq!(seqs(&db, t), (0..n).collect::<Vec<_>>());

    // The recovered database is writable and a further checkpoint (which
    // reuses the same temp path) succeeds despite the stale temp file.
    commit_seq(&db, t, n);
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(&path, common::options()).unwrap();
    let t = db.table_id("t").unwrap();
    assert_eq!(seqs(&db, t), (0..=n).collect::<Vec<_>>());
}

/// Crash *after* the rename, while splicing mid-rewrite commits onto
/// the new tail: any truncation at or past the snapshot boundary must
/// recover the full checkpointed state plus a prefix of the spliced
/// commits — never less than the checkpoint, never a corrupt hybrid.
#[test]
fn torn_splice_after_rename_recovers_checkpoint_plus_prefix() {
    let (_dir, path) = tmp("torn-splice.wal");
    let n = 8i64;
    let extra = 5i64;
    {
        let db = Database::open(&path, common::options()).unwrap();
        let t = db.create_table(table_def()).unwrap();
        for i in 0..n {
            commit_seq(&db, t, i);
        }
        db.checkpoint().unwrap();
        let snapshot_len = std::fs::metadata(&path).unwrap().len() as usize;
        for i in 0..extra {
            commit_seq(&db, t, n + i);
        }
        drop(db);

        let full = std::fs::read(&path).unwrap();
        let tail = full.len() - snapshot_len;
        // Cut the log at a sweep of points in the spliced tail,
        // including both boundaries.
        for step in 0..=4usize {
            let cut = snapshot_len + tail * step / 4;
            let (_cut_dir, cut_path) = tmp(&format!("torn-splice-cut{step}.wal"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();

            let db = Database::open(&cut_path, common::options()).unwrap();
            let t = db.table_id("t").unwrap();
            let got = seqs(&db, t);
            assert!(
                got.len() as i64 >= n,
                "checkpointed rows lost at cut {step}: {got:?}"
            );
            assert!(got.len() as i64 <= n + extra);
            // Exactly the checkpoint plus a commit-order prefix of the
            // spliced tail.
            assert_eq!(got, (0..got.len() as i64).collect::<Vec<_>>());
            // And still writable.
            commit_seq(&db, t, 999);
        }
    }
}

/// Writers keep committing while checkpoints run concurrently; every
/// acknowledged commit must be present live and after a reopen.
#[test]
fn concurrent_commits_survive_repeated_checkpoints() {
    let (_dir, path) = tmp("concurrent-ckpt.wal");
    let writers = 4i64;
    let per_writer = 50i64;
    {
        let db = Database::open(&path, common::options()).unwrap();
        let t = db.create_table(table_def()).unwrap();
        let done = Arc::new(AtomicBool::new(false));

        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        commit_seq(&db, t, w * 1_000 + i);
                    }
                })
            })
            .collect();
        let checkpointer = {
            let db = db.clone();
            let done = done.clone();
            std::thread::spawn(move || loop {
                // Read before the checkpoint: the one that follows a
                // `true` began after the last commit, whenever this
                // thread first got to run.
                let last = done.load(Ordering::Acquire);
                db.checkpoint().unwrap();
                if last {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        checkpointer.join().unwrap();

        let expected: Vec<i64> = (0..writers)
            .flat_map(|w| (0..per_writer).map(move |i| w * 1_000 + i))
            .collect();
        assert_eq!(seqs(&db, t), expected);
    }
    let db = Database::open(&path, common::options()).unwrap();
    let t = db.table_id("t").unwrap();
    assert_eq!(
        db.begin().count(t, &Predicate::True).unwrap() as i64,
        writers * per_writer
    );
}

/// A transaction's snapshot stays repeatable while a writer storm and
/// an aggressive vacuum run underneath it: two reads of the same row
/// inside one transaction always agree.
#[test]
fn vacuum_under_load_keeps_snapshots_repeatable() {
    let db = Database::open_in_memory();
    let t = db.create_table(table_def()).unwrap();
    let rid = {
        let mut txn = db.begin();
        let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
        txn.commit().unwrap();
        rid
    };

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 1i64;
            while !stop.load(Ordering::Relaxed) {
                let mut w = db.begin();
                w.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
                w.commit().unwrap();
                i += 1;
            }
        })
    };
    let vacuumer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.vacuum();
            }
        })
    };

    for _ in 0..500 {
        let reader = db.begin();
        let first = reader
            .get(t, rid)
            .unwrap()
            .expect("row predates every snapshot")
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        std::thread::yield_now();
        let second = reader
            .get(t, rid)
            .unwrap()
            .expect("pinned version vanished mid-transaction")
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(first, second, "snapshot read was not repeatable");
    }

    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    vacuumer.join().unwrap();
}

/// End-to-end: with tiny budgets the background thread checkpoints and
/// vacuums on its own, the log stays bounded (far smaller than the
/// unmaintained twin), and a reopen recovers everything.
#[test]
fn auto_maintenance_bounds_wal_and_preserves_data() {
    let updates = 2_500i64;

    // Twin run without maintenance: how big the log grows unattended.
    let (_bare_dir, bare_path) = tmp("auto-maint-bare.wal");
    {
        let db = Database::open(&bare_path, common::options()).unwrap();
        let t = db.create_table(table_def()).unwrap();
        let rid = {
            let mut txn = db.begin();
            let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
            txn.commit().unwrap();
            rid
        };
        for i in 1..=updates {
            let mut txn = db.begin();
            txn.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
            txn.commit().unwrap();
        }
    }
    let bare_len = std::fs::metadata(&bare_path).unwrap().len();

    let (_dir, path) = tmp("auto-maint.wal");
    let checkpoint_wal_bytes = 8 * 1024;
    let opts = Options {
        maintenance: Some(MaintenanceOptions {
            interval: Duration::from_millis(1),
            vacuum_pruneable: 32,
            checkpoint_wal_bytes,
            checkpoint_wal_records: 200,
            ..MaintenanceOptions::default()
        }),
        ..common::options()
    };
    {
        let db = Database::open(&path, opts.clone()).unwrap();
        let t = db.create_table(table_def()).unwrap();
        let rid = {
            let mut txn = db.begin();
            let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
            txn.commit().unwrap();
            rid
        };
        for i in 1..=updates {
            let mut txn = db.begin();
            txn.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
            txn.commit().unwrap();
        }
        // The thread runs on its own schedule; give it a bounded window
        // to catch up with the backlog — all of it: a checkpoint taken
        // somewhere in the middle of the updates leaves the rest of them
        // in the log, so wait until the log since the last checkpoint is
        // back under what can be left without triggering another: the
        // budget, on top of whatever was committed while that checkpoint
        // ran (far less than a second budget).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (stats, (tail_bytes, _)) = (db.stats(), db.wal_size());
            if stats.maintenance_checkpoints > 0
                && stats.maintenance_vacuums > 0
                && tail_bytes <= 2 * checkpoint_wal_bytes
            {
                assert!(stats.versions_pruned > 0);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "background maintenance never caught up: {tail_bytes} bytes logged, {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // The tail since the last auto-checkpoint can approach the byte
    // budget, so assert a conservative bound: well under half the
    // unmaintained twin (which grows linearly with updates).
    let maintained_len = std::fs::metadata(&path).unwrap().len();
    assert!(
        maintained_len * 2 < bare_len,
        "maintained log not bounded: {maintained_len} vs bare {bare_len}"
    );

    let db = Database::open(&path, common::options()).unwrap();
    let t = db.table_id("t").unwrap();
    let rows = db.begin().scan(t, &Predicate::True).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0].1.get(0).unwrap().as_int().unwrap(),
        updates,
        "latest committed value lost across reopen"
    );
}
