//! Crash-injection and stress tests for the checkpoint and the
//! background maintenance subsystem.
//!
//! A checkpoint is a log rotation: under the exclusive commit latch it
//! switches the log to a new segment, and off it it writes a base to a
//! temp file, renames it over the old base and removes the segments the
//! new base covers. A crash at any point must leave the log recoverable
//! to every commit it had acknowledged, in commit order: before the
//! rename from the old base and every segment, after it from the new base
//! and the segments it names; and the commit path never waits for it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use tendax_storage::vfs::Vfs;
use tendax_storage::wal::segment_path;
use tendax_storage::{
    ColdOptions, DataType, Database, DurabilityLevel, MaintenanceOptions, Options, Predicate, Row,
    SimVfs, TableDef, Value,
};

mod common;
use common::{HookVfs, Step, TestDir};

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

/// Everything a checkpoint leaves at each of its crash points, taken
/// from a real run: the log after a first checkpoint (`base1`, `seg1`),
/// the second checkpoint's base (`base2`), and the segment it switched to
/// (`seg2`), which holds `extra` commits made after it. Rows `0..n` are in
/// the first base, `n..2n` in segment 1.
struct Crashed {
    base1: Vec<u8>,
    seg1: Vec<u8>,
    base2: Vec<u8>,
    seg2: Vec<u8>,
}

fn two_checkpoints(path: &std::path::Path, n: i64, extra: i64) -> Crashed {
    let db = Database::open(path, common::options()).unwrap();
    let t = db.create_table(table_def()).unwrap();
    for i in 0..n {
        commit_seq(&db, t, i);
    }
    db.checkpoint().unwrap();
    for i in n..2 * n {
        commit_seq(&db, t, i);
    }
    let base1 = std::fs::read(path).unwrap();
    let seg1 = std::fs::read(segment_path(path, 1)).unwrap();
    db.checkpoint().unwrap();
    assert!(
        !segment_path(path, 1).exists(),
        "the covered segment was kept"
    );
    for i in 2 * n..2 * n + extra {
        commit_seq(&db, t, i);
    }
    drop(db);
    Crashed {
        base1,
        seg1,
        base2: std::fs::read(path).unwrap(),
        seg2: std::fs::read(segment_path(path, 2)).unwrap(),
    }
}

/// Reopen `path`: every row of `0..want` there, in commit order, and the
/// log writable; the sealed segments the base covers, a segment no
/// switch reached, and the base's temp file all gone.
fn recovers(path: &std::path::Path, want: i64) {
    let db = Database::open(path, common::options()).unwrap();
    let t = db.table_id("t").unwrap();
    assert_eq!(seqs(&db, t), (0..want).collect::<Vec<_>>());
    commit_seq(&db, t, want);
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(path, common::options()).unwrap();
    assert_eq!(seqs(&db, t), (0..=want).collect::<Vec<_>>());
    let tmp = format!("{}.tmp", path.display());
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "the temp file was kept"
    );
}

/// A crash before the second base's rename: the first base, both
/// segments, and the temp file holding part of the new base. Recovery
/// reads the first base and both segments, and ignores the temp file.
#[test]
fn crash_before_rename_recovers_pre_checkpoint_state() {
    let (_dir, path) = tmp("pre-rename.wal");
    let (n, extra) = (10, 4);
    let c = two_checkpoints(&path, n, extra);
    std::fs::write(&path, &c.base1).unwrap();
    std::fs::write(segment_path(&path, 1), &c.seg1).unwrap();
    let tmp = format!("{}.tmp", path.display());
    std::fs::write(&tmp, &c.base2[..c.base2.len() / 2]).unwrap();
    recovers(&path, 2 * n + extra);
    assert!(!segment_path(&path, 1).exists());
}

/// A crash after the second base's rename but before the segment it
/// covers is removed: recovery starts at the segment the base names and
/// removes the covered one. Cut anywhere in the live segment's tail, the
/// log recovers the checkpoint plus a commit-order prefix of that tail.
#[test]
fn crash_after_rename_before_the_deletes_recovers_the_base_plus_a_prefix() {
    let (_dir, path) = tmp("post-rename.wal");
    let (n, extra) = (8, 5);
    let c = two_checkpoints(&path, n, extra);
    let format_frame = 10;
    for step in 0..=4usize {
        let (_cut_dir, cut_path) = tmp(&format!("post-rename-cut{step}.wal"));
        let cut = format_frame + (c.seg2.len() - format_frame) * step / 4;
        std::fs::write(&cut_path, &c.base2).unwrap();
        std::fs::write(segment_path(&cut_path, 1), &c.seg1).unwrap();
        std::fs::write(segment_path(&cut_path, 2), &c.seg2[..cut]).unwrap();
        let db = Database::open(&cut_path, common::options()).unwrap();
        assert!(
            !segment_path(&cut_path, 1).exists(),
            "cut {step}: covered segment kept"
        );
        let t = db.table_id("t").unwrap();
        let got = seqs(&db, t);
        assert!(
            got.len() as i64 >= 2 * n,
            "checkpointed rows lost at cut {step}: {got:?}"
        );
        assert!(got.len() as i64 <= 2 * n + extra);
        assert_eq!(got, (0..got.len() as i64).collect::<Vec<_>>());
        commit_seq(&db, t, 999);
    }
}

/// What a checkpoint cut short before its switch leaves: a segment after
/// the live one holding only its format frame, and a temp file. Open
/// removes both, and the live segment — torn by the same crash — stays
/// live: its torn tail is cut and writing resumes in it.
#[test]
fn an_orphaned_segment_and_temp_file_are_swept_on_open() {
    let (_dir, path) = tmp("orphans.wal");
    let (n, extra) = (6, 3);
    let c = two_checkpoints(&path, n, extra);
    let orphan = segment_path(&path, 3);
    std::fs::write(&orphan, &c.seg2[..10]).unwrap();
    let mut torn = c.seg2.clone();
    torn.extend_from_slice(&[0xab; 5]);
    std::fs::write(segment_path(&path, 2), &torn).unwrap();
    let tmp = format!("{}.tmp", path.display());
    std::fs::write(&tmp, &c.base2[..c.base2.len() / 3]).unwrap();
    let db = Database::open(&path, common::options()).unwrap();
    assert!(!orphan.exists(), "the orphaned segment was kept");
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "the temp file was kept"
    );
    assert_eq!(
        std::fs::read(segment_path(&path, 2)).unwrap(),
        c.seg2,
        "the tear was kept"
    );
    let t = db.table_id("t").unwrap();
    commit_seq(&db, t, 2 * n + extra);
    drop(db);
    assert!(std::fs::read(segment_path(&path, 2)).unwrap().len() > c.seg2.len());
    assert!(!orphan.exists(), "a commit went to the orphan");
    recovers(&path, 2 * n + extra + 1);
}

/// A commit is never parked behind a checkpoint: while the checkpoint's
/// first write of its base is held, a commit on another thread returns,
/// and at `Fsync` it is durable — it survives a power cut taken once the
/// checkpoint is let go.
#[test]
fn a_commit_returns_while_the_base_is_written() {
    let sim = SimVfs::new(7);
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (held_tx, release_rx) = (Mutex::new(Some(held_tx)), Mutex::new(release_rx));
    let hook = move |step: Step<'_>| {
        if matches!(step, Step::Write(_)) && step.on(".tmp") {
            if let Some(held) = held_tx.lock().unwrap().take() {
                held.send(()).unwrap();
                // Bounded: a commit that never returns fails the test
                // below, it does not hang it.
                let _ = release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
            }
        }
    };
    let opts = Options {
        durability: DurabilityLevel::Fsync,
        vfs: Arc::new(HookVfs::new(sim.clone(), hook)),
        ..common::options()
    };
    let db = Database::open(WAL, opts).unwrap();
    let t = db.create_table(table_def()).unwrap();
    for i in 0..5 {
        commit_seq(&db, t, i);
    }
    let checkpointer = {
        let db = db.clone();
        std::thread::spawn(move || db.checkpoint())
    };
    held_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the checkpoint never wrote its base");
    let (done_tx, done_rx) = mpsc::channel();
    let committer = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(5)])).unwrap();
            done_tx.send(txn.commit().map(drop)).unwrap();
        })
    };
    let committed = done_rx.recv_timeout(Duration::from_secs(5));
    release_tx.send(()).unwrap();
    committer.join().unwrap();
    checkpointer.join().unwrap().unwrap();
    assert!(
        matches!(committed, Ok(Ok(()))),
        "a commit waited for the checkpoint's base: {committed:?}"
    );
    drop(db);
    sim.crash();
    let db = Database::open(WAL, sim_options(&sim)).unwrap();
    assert_eq!(seqs(&db, t), (0..6).collect::<Vec<_>>());
}

/// The base holds the rows visible at the checkpoint's watermark W, and W
/// is pinned like a snapshot while the base is written: a row updated
/// (by a column patch, which replay composes onto the row it replaced)
/// and vacuumed between the switch and the base's read of its table
/// keeps its version at W, so the base has it and the segment's patch
/// replays onto it.
#[test]
fn a_vacuum_while_the_base_is_written_keeps_the_rows_at_the_watermark() {
    let (_dir, path) = tmp("pinned.wal");
    let db = Database::open(&path, Options::default()).unwrap();
    let first = db.create_table(table_def()).unwrap();
    let later = db
        .create_table(TableDef::new("later").column("n", DataType::Int))
        .unwrap();
    commit_seq(&db, first, 0);
    let mut txn = db.begin();
    let row = txn.insert(later, Row::new(vec![Value::Int(1)])).unwrap();
    txn.commit().unwrap();
    drop(db);
    // The base's first write comes after the first table's rows are
    // read, before the later table's are.
    let slot: Arc<Mutex<Option<Database>>> = Arc::default();
    let hook = {
        let slot = slot.clone();
        move |step: Step<'_>| {
            if !(matches!(step, Step::Write(_)) && step.on(".tmp")) {
                return;
            }
            let Some(db) = slot.lock().unwrap().take() else {
                return;
            };
            let mut txn = db.begin();
            txn.set(later, row, &[("n", Value::Int(2))]).unwrap();
            txn.commit().unwrap();
            db.vacuum();
        }
    };
    let opts = || Options {
        vfs: Arc::new(HookVfs::new(tendax_storage::OsVfs, hook.clone())),
        ..Options::default()
    };
    let db = Database::open(&path, opts()).unwrap();
    *slot.lock().unwrap() = Some(db.clone());
    db.checkpoint().unwrap();
    assert!(slot.lock().unwrap().is_none(), "the hook never ran");
    drop(db);
    let db = Database::open(&path, Options::default()).unwrap();
    let n = db.begin().get(later, row).unwrap().unwrap();
    assert_eq!(n.get(0).unwrap().as_int(), Some(2));
}

/// A checkpoint that fails writing its base, or demoting its history,
/// publishes nothing: the log stays writable, not poisoned, and the old
/// base stays in force.
#[test]
fn a_failed_base_write_or_demotion_leaves_the_log_writable() {
    for (cold, step) in [(false, ".tmp"), (true, ".cold.run0")] {
        let sim = SimVfs::new(11);
        let armed = Arc::new(AtomicBool::new(false));
        let hook = {
            let (sim, armed) = (sim.clone(), armed.clone());
            move |s: Step<'_>| {
                if matches!(s, Step::Create(_)) && s.on(step) && armed.swap(false, Ordering::SeqCst)
                {
                    sim.fail_next_syncs(1);
                }
            }
        };
        let opts = Options {
            durability: DurabilityLevel::Fsync,
            vfs: Arc::new(HookVfs::new(sim.clone(), hook)),
            cold_storage: cold.then(ColdOptions::default),
            ..Options::default()
        };
        let db = Database::open(WAL, opts).unwrap();
        let t = db.create_table(table_def()).unwrap();
        for i in 0..5 {
            commit_seq(&db, t, i);
        }
        db.checkpoint().unwrap();
        let base = sim.read(std::path::Path::new(WAL)).unwrap();
        for i in 5..8 {
            // Superseded versions: history for a cold tier to take.
            let mut txn = db.begin();
            let rid = txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
            txn.commit().unwrap();
            let mut txn = db.begin();
            txn.update(t, rid, Row::new(vec![Value::Int(i)])).unwrap();
            txn.commit().unwrap();
        }
        armed.store(true, Ordering::SeqCst);
        let failed = db.checkpoint();
        assert!(
            failed.is_err(),
            "cold {cold}: the failed {step} sync went unnoticed"
        );
        assert!(
            !armed.load(Ordering::SeqCst),
            "cold {cold}: {step} never created"
        );
        assert_eq!(
            sim.read(std::path::Path::new(WAL)).unwrap(),
            base,
            "cold {cold}"
        );
        commit_seq(&db, t, 8);
        drop(db);
        sim.crash();
        let db = Database::open(
            WAL,
            Options {
                cold_storage: cold.then(ColdOptions::default),
                ..sim_options(&sim)
            },
        )
        .unwrap();
        assert_eq!(seqs(&db, t), (0..9).collect::<Vec<_>>(), "cold {cold}");
        db.checkpoint().unwrap();
    }
}

const WAL: &str = "/sim/maint.wal";

fn sim_options(sim: &SimVfs) -> Options {
    Options {
        durability: DurabilityLevel::Fsync,
        vfs: Arc::new(sim.clone()),
        ..common::options()
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
        // A tick still running holds the database open past the drop
        // below; wait for it, so no checkpoint is halfway through when
        // the log is weighed.
        db.stop_maintenance();
    }
    // The tail since the last auto-checkpoint can approach the byte
    // budget, so assert a conservative bound: well under half the
    // unmaintained twin (which grows linearly with updates). The log is
    // its base and the segments beside it.
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let maintained_len: u64 = (std::fs::read_dir(path.parent().unwrap()).unwrap())
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&name))
        .filter(|e| !e.file_name().to_string_lossy().contains(".cold."))
        .map(|e| e.metadata().unwrap().len())
        .sum();

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
