//! Invariant and stress tests for the sharded commit pipeline.
//!
//! The pipeline replaces the global commit mutex with an atomic
//! timestamp sequencer, per-table publication, and a contiguous-prefix
//! watermark that governs snapshot visibility. Each test here targets
//! an invariant that the naive lock-free design ("atomic timestamp, no
//! watermark") breaks:
//!
//! * **gap-freedom** — a snapshot at timestamp `s` sees *every* commit
//!   with `ts <= s`, even while commits to other tables are mid-publish;
//! * **first-committer-wins** — conflict accounting and the error
//!   surface are unchanged, and losers never occupy a timestamp slot;
//! * **WAL prefix replay** — the log replays as a commit-order prefix
//!   at every truncation point, at both durability levels, even when
//!   racing threads publish out of timestamp order, and a commit that
//!   unwound after its frame was encoded still reaches the log;
//! * **DDL/maintenance interleaving** — exclusive-mode operations
//!   (create/drop table, the checkpoint copy phase, auto-maintenance)
//!   stay correct while the shared-mode commit pipeline runs hot.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use tendax_storage::{
    CommitObserver, DataType, Database, DurabilityLevel, MaintenanceOptions, Options, Predicate,
    Row, RowId, StorageError, TableDef, TableId, Ts, Value, WriteSet,
};

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-pipeline");
    let p = dir.file(name);
    (dir, p)
}

fn seq_table(name: &str) -> TableDef {
    TableDef::new(name).column("seq", DataType::Int)
}

fn int_at(db: &Database, t: TableId, rid: RowId) -> i64 {
    db.begin()
        .get(t, rid)
        .unwrap()
        .unwrap()
        .get(0)
        .unwrap()
        .as_int()
        .unwrap()
}

/// Gap-freedom: while four writers commit to four disjoint tables, a
/// reader's snapshot must cover the *contiguous* prefix of commit
/// timestamps. With a naive "snapshot = newest allocated ts" scheme a
/// reader can be handed a timestamp whose predecessors have not
/// published yet and miss their writes; the watermark makes that
/// impossible. Verified post-hoc against the exact commit log.
#[test]
fn snapshots_never_expose_timestamp_gaps() {
    const WRITERS: usize = 4;
    const COMMITS: i64 = 300;

    let db = Database::open_in_memory();
    let mut tables = Vec::new();
    let mut rids = Vec::new();
    for k in 0..WRITERS {
        let t = db.create_table(seq_table(&format!("t{k}"))).unwrap();
        let mut setup = db.begin();
        let rid = setup.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
        setup.commit().unwrap();
        tables.push(t);
        rids.push(rid);
    }

    // (commit_ts, table index, value) — pushed after commit() returns,
    // so post-join the log holds every successful commit exactly once.
    let log: Arc<Mutex<Vec<(Ts, usize, i64)>>> = Arc::default();
    let done = Arc::new(AtomicBool::new(false));
    // Writers + readers rendezvous here; the main thread does not.
    let start = Arc::new(Barrier::new(WRITERS + 2));

    let writers: Vec<_> = (0..WRITERS)
        .map(|k| {
            let db = db.clone();
            let log = log.clone();
            let start = start.clone();
            let (t, rid) = (tables[k], rids[k]);
            std::thread::spawn(move || {
                start.wait();
                for i in 1..=COMMITS {
                    let mut txn = db.begin();
                    txn.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
                    let ts = txn.commit().unwrap();
                    log.lock().unwrap().push((ts, k, i));
                }
            })
        })
        .collect();

    // Two readers: each records (snapshot_ts, [value per table]).
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let done = done.clone();
            let start = start.clone();
            let tables = tables.clone();
            let rids = rids.clone();
            std::thread::spawn(move || {
                start.wait();
                let mut observed: Vec<(Ts, Vec<i64>)> = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let txn = db.begin();
                    let s = txn.snapshot_ts();
                    let vals: Vec<i64> = (0..WRITERS)
                        .map(|k| {
                            txn.get(tables[k], rids[k])
                                .unwrap()
                                .unwrap()
                                .get(0)
                                .unwrap()
                                .as_int()
                                .unwrap()
                        })
                        .collect();
                    observed.push((s, vals));
                }
                observed
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);

    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    assert_eq!(log.len(), WRITERS * COMMITS as usize);

    let mut checked = 0u64;
    for reader in readers {
        for (s, vals) in reader.join().unwrap() {
            // Nothing *newer* than the snapshot leaked in, and nothing
            // at-or-below the snapshot is missing. Each writer's values
            // are monotone in ts, so per table both directions reduce
            // to: the observed value is the largest one committed <= s.
            for (ts, k, v) in &log {
                if *ts <= s {
                    assert!(
                        vals[*k] >= *v,
                        "snapshot {s} missed commit ts {ts} (table {k}, \
                         value {v}, saw {}): watermark exposed a gap",
                        vals[*k]
                    );
                }
            }
            // The strict future-leak check: the value seen must itself
            // have been committed at or below s.
            for (k, &seen) in vals.iter().enumerate() {
                if seen > 0 {
                    let ts_of = log
                        .iter()
                        .find(|(_, lk, lv)| *lk == k && *lv == seen)
                        .map(|(ts, _, _)| *ts)
                        .expect("observed value was committed");
                    assert!(
                        ts_of <= s,
                        "snapshot {s} saw value {seen} from future ts {ts_of}"
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "readers never observed anything");
}

/// First-committer-wins under the parallel pipeline: single-attempt
/// racers on one row lose with `WriteConflict`, losses are counted in
/// `Stats::conflicts`, and — the part a naive sequencer gets wrong —
/// losers never occupy a timestamp slot, so the watermark lands at
/// exactly setup + wins and fresh snapshots never wait on (or miss)
/// a timestamp that nobody will publish.
#[test]
fn conflict_losers_release_no_timestamps_and_are_counted() {
    const THREADS: usize = 4;
    const ATTEMPTS: usize = 50;

    let db = Database::open_in_memory();
    let t = db.create_table(seq_table("t")).unwrap();
    let mut setup = db.begin();
    let rid = setup.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
    let setup_ts = setup.commit().unwrap();

    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = db.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                let mut wins = 0u64;
                let mut losses = 0u64;
                for _ in 0..ATTEMPTS {
                    let mut txn = db.begin();
                    let cur = txn
                        .get(t, rid)
                        .unwrap()
                        .unwrap()
                        .get(0)
                        .unwrap()
                        .as_int()
                        .unwrap();
                    txn.set(t, rid, &[("seq", Value::Int(cur + 1))]).unwrap();
                    match txn.commit() {
                        Ok(_) => wins += 1,
                        Err(StorageError::WriteConflict { .. }) => losses += 1,
                        Err(e) => panic!("unexpected commit error: {e:?}"),
                    }
                }
                (wins, losses)
            })
        })
        .collect();

    let mut wins = 0u64;
    let mut losses = 0u64;
    for h in handles {
        let (w, l) = h.join().unwrap();
        wins += w;
        losses += l;
    }
    assert_eq!(wins + losses, (THREADS * ATTEMPTS) as u64);
    assert!(wins > 0, "nobody ever committed");

    let stats = db.stats();
    assert_eq!(stats.conflicts, losses, "conflict accounting drifted");
    // Successful increments serialize, so the row counts the winners.
    assert_eq!(int_at(&db, t, rid), wins as i64);
    // Dense timestamps: every win took exactly one slot, every loss
    // took none, and the watermark reached the end of the sequence —
    // an unreleased loser slot would leave last_commit_ts stuck below.
    assert_eq!(db.last_commit_ts(), setup_ts + wins);
    assert_eq!(db.begin().snapshot_ts(), setup_ts + wins);
}

/// Commit wait: a session's next transaction must always see its own
/// previous commit. Without the watermark wait in `commit()`, a thread
/// racing other (disjoint!) committers can begin its next transaction
/// below its own commit timestamp and spuriously conflict with itself
/// — this test is the distilled form of exactly that failure, first
/// observed in the A7 scaling bench at 8 threads.
#[test]
fn own_commit_is_visible_to_the_next_transaction() {
    const THREADS: usize = 8;
    const UPDATES: i64 = 400;

    let db = Database::open_in_memory();
    let targets: Vec<(TableId, RowId)> = (0..THREADS)
        .map(|k| {
            let t = db.create_table(seq_table(&format!("t{k}"))).unwrap();
            let mut setup = db.begin();
            let rid = setup.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
            setup.commit().unwrap();
            (t, rid)
        })
        .collect();

    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = targets
        .into_iter()
        .map(|(t, rid)| {
            let db = db.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                let mut last_ts = 0;
                for i in 1..=UPDATES {
                    let mut txn = db.begin();
                    assert!(
                        txn.snapshot_ts() >= last_ts,
                        "snapshot {} below own previous commit {last_ts}",
                        txn.snapshot_ts()
                    );
                    // The previous write must be visible — and the
                    // commit must never lose first-committer-wins
                    // against *ourselves* (nobody else touches this
                    // table).
                    let seen = txn
                        .get(t, rid)
                        .unwrap()
                        .unwrap()
                        .get(0)
                        .unwrap()
                        .as_int()
                        .unwrap();
                    assert_eq!(seen, i - 1, "own previous write invisible");
                    txn.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
                    last_ts = txn.commit().expect("self-conflict");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.stats().conflicts, 0, "disjoint writers conflicted");
}

/// DDL takes the commit latch in exclusive mode while committers stream
/// through shared mode. Racing the two must neither deadlock nor lose
/// commits, and the WAL replay of the interleaving must reconstruct
/// the surviving schema and every row.
#[test]
fn ddl_races_parallel_committers() {
    const WRITERS: usize = 3;
    const COMMITS: i64 = 60;
    const DDL_CYCLES: usize = 15;

    let (_dir, path) = tmp("ddl-race.wal");
    let opts = common::options();
    {
        let db = Database::open(&path, opts.clone()).unwrap();
        let mut tables = Vec::new();
        for k in 0..WRITERS {
            tables.push(db.create_table(seq_table(&format!("t{k}"))).unwrap());
        }

        let start = Arc::new(Barrier::new(WRITERS + 1));
        let writers: Vec<_> = (0..WRITERS)
            .map(|k| {
                let db = db.clone();
                let start = start.clone();
                let t = tables[k];
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..COMMITS {
                        let mut txn = db.begin();
                        txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        let ddl = {
            let db = db.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for c in 0..DDL_CYCLES {
                    let name = format!("scratch{c}");
                    let t = db.create_table(seq_table(&name)).unwrap();
                    let mut txn = db.begin();
                    txn.insert(t, Row::new(vec![Value::Int(c as i64)])).unwrap();
                    txn.commit().unwrap();
                    db.drop_table(&name).unwrap();
                }
            })
        };
        for h in writers {
            h.join().unwrap();
        }
        ddl.join().unwrap();

        assert_eq!(db.table_names().len(), WRITERS);
        for &t in &tables {
            assert_eq!(
                db.begin().count(t, &Predicate::True).unwrap() as i64,
                COMMITS
            );
        }
    }

    // Replay the interleaved log: schema and rows both survive.
    let db = Database::open(&path, opts).unwrap();
    assert_eq!(db.table_names().len(), WRITERS);
    for k in 0..WRITERS {
        let t = db.table_id(&format!("t{k}")).unwrap();
        assert_eq!(
            db.begin().count(t, &Predicate::True).unwrap() as i64,
            COMMITS
        );
        // And still writable after the replay.
        let mut txn = db.begin();
        txn.insert(t, Row::new(vec![Value::Int(999)])).unwrap();
        txn.commit().unwrap();
    }
}

/// The DDL race at its nastiest: committers write to the very table
/// `drop_table` is removing. A committer whose frame is in the batch and
/// that left the shared latch has not necessarily flushed it; the DropTable frame
/// must still land behind it, or replay meets a commit for a table that
/// is already gone and the database does not reopen.
#[test]
fn drop_table_racing_committers_keeps_log_replayable() {
    let (_dir, path) = tmp("drop-race.wal");
    let opts = common::options();
    {
        let db = Database::open(&path, opts.clone()).unwrap();
        for round in 0..20 {
            let name = format!("doc{round}");
            let t = db.create_table(seq_table(&name)).unwrap();
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    let db = db.clone();
                    std::thread::spawn(move || loop {
                        let mut txn = db.begin();
                        // The table can vanish under us at any point;
                        // any error just means the race is over.
                        if txn.insert(t, Row::new(vec![Value::Int(1)])).is_err() {
                            break;
                        }
                        if txn.commit().is_err() {
                            break;
                        }
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            db.drop_table(&name).unwrap();
            for h in writers {
                h.join().unwrap();
            }
        }
    }
    // The interleaved log must replay as a consistent prefix: every
    // commit frame precedes the DropTable of the table it touches.
    Database::open(&path, opts).unwrap();
}

/// The WAL-ordering half of the pipeline: four threads commit to four
/// disjoint tables so their commits *resolve* in racy arrival order,
/// yet the file must receive them in timestamp order. Truncating the
/// log at every cut point and replaying must always yield exactly the
/// set of commits with `ts <= recovered last_commit_ts` — a commit-
/// order prefix, never a subset with holes. Swept at both durability
/// levels because each flushes the batch differently.
#[test]
fn wal_replays_as_commit_order_prefix_at_every_cut() {
    for durability in [DurabilityLevel::Buffered, DurabilityLevel::Fsync] {
        const WRITERS: usize = 4;
        const COMMITS: i64 = 25;

        let (_dir, path) = tmp(&format!("prefix-{durability:?}.wal"));
        let log: Arc<Mutex<Vec<(Ts, usize, i64)>>> = Arc::default();
        {
            let opts = Options {
                durability,
                ..common::options()
            };
            let db = Database::open(&path, opts).unwrap();
            let tables: Vec<TableId> = (0..WRITERS)
                .map(|k| db.create_table(seq_table(&format!("t{k}"))).unwrap())
                .collect();
            let start = Arc::new(Barrier::new(WRITERS));
            let handles: Vec<_> = (0..WRITERS)
                .map(|k| {
                    let db = db.clone();
                    let log = log.clone();
                    let start = start.clone();
                    let t = tables[k];
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..COMMITS {
                            let mut txn = db.begin();
                            txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
                            let ts = txn.commit().unwrap();
                            log.lock().unwrap().push((ts, k, i));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Every commit waited for its flush, so the full log is on
            // disk afterwards.
        }
        let log = log.lock().unwrap().clone();
        assert_eq!(log.len(), WRITERS * COMMITS as usize);

        let full = std::fs::read(&path).unwrap();
        let step = (full.len() / 40).max(1);
        let mut cuts: Vec<usize> = (0..full.len()).step_by(step).collect();
        cuts.push(full.len());
        for (n, cut) in cuts.into_iter().enumerate() {
            let (_cut_dir, cut_path) = tmp(&format!("prefix-{durability:?}-cut{n}.wal"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();

            let db = Database::open(&cut_path, common::options()).unwrap();
            let horizon = db.last_commit_ts();
            for k in 0..WRITERS {
                let recovered: BTreeSet<i64> = match db.table_id(&format!("t{k}")) {
                    Ok(t) => db
                        .begin()
                        .scan(t, &Predicate::True)
                        .unwrap()
                        .iter()
                        .map(|(_, r)| r.get(0).unwrap().as_int().unwrap())
                        .collect(),
                    // The cut fell before this table's DDL record.
                    Err(_) => BTreeSet::new(),
                };
                let expected: BTreeSet<i64> = log
                    .iter()
                    .filter(|(ts, lk, _)| *lk == k && *ts <= horizon)
                    .map(|(_, _, v)| *v)
                    .collect();
                assert_eq!(
                    recovered,
                    expected,
                    "{durability:?} cut {cut}/{}: table {k} is not the \
                     ts<={horizon} prefix — the log was written out of \
                     commit order",
                    full.len()
                );
            }
        }
    }
}

/// Parks commits to one table and unwinds commits to another, inside
/// the commit: a commit observer runs after the versions are applied
/// and before the timestamp resolves.
struct ParkOrPanic {
    park: TableId,
    announce: Mutex<Sender<Ts>>,
    release: Mutex<Receiver<()>>,
}

impl CommitObserver for ParkOrPanic {
    fn committed(&self, commit_ts: Ts, writes: &WriteSet<'_>) {
        if writes.tables().any(|t| t.table() == self.park) {
            self.announce.lock().unwrap().send(commit_ts).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        } else {
            panic!("observer unwinds the commit at ts {commit_ts}");
        }
    }
}

/// A commit whose frame was encoded reaches the log when its timestamp
/// joins the watermark, even when it unwound while waiting behind a
/// lower timestamp: its versions become visible then, so its record
/// must survive a reopen. Dropping the frame on unwind leaves the row
/// visible before the reopen and gone after it.
#[test]
fn unwound_commit_behind_a_parked_one_reaches_the_log() {
    let (_dir, path) = tmp("unwound.wal");
    let (a, b) = {
        let db = Database::open(&path, common::options()).unwrap();
        let a = db.create_table(seq_table("a")).unwrap();
        let b = db.create_table(seq_table("b")).unwrap();
        let (announce, announced) = channel();
        let (release, released) = channel();
        let observer: Arc<dyn CommitObserver> = Arc::new(ParkOrPanic {
            park: a,
            announce: Mutex::new(announce),
            release: Mutex::new(released),
        });
        db.observe_commits(&observer);
        let insert = |t: TableId, v: i64| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut txn = db.begin();
                txn.insert(t, Row::new(vec![Value::Int(v)])).unwrap();
                txn.commit().unwrap()
            })
        };
        let parked = insert(a, 1);
        let parked_ts = announced.recv().unwrap();
        // The second commit takes the next timestamp and unwinds behind
        // the parked one.
        assert!(insert(b, 2).join().is_err(), "the observer did not unwind");
        assert!(db.begin().scan(b, &Predicate::True).unwrap().is_empty());
        release.send(()).unwrap();
        assert_eq!(parked.join().unwrap(), parked_ts);
        assert_eq!(db.last_commit_ts(), parked_ts + 1);
        assert_eq!(
            db.begin().scan(b, &Predicate::True).unwrap().len(),
            1,
            "the unwound commit's applied row is not visible"
        );
        (a, b)
    };
    let db = Database::open(&path, common::options()).unwrap();
    for (t, v) in [(a, 1), (b, 2)] {
        let rows = db.begin().scan(t, &Predicate::True).unwrap();
        let got: Vec<i64> = (rows.iter())
            .map(|(_, r)| r.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(
            got,
            vec![v],
            "table {t:?}: visible before the reopen, gone after it"
        );
    }
}

/// Checkpoints (manual and auto) quiesce the pipeline via the exclusive
/// latch while disjoint writers hammer shared mode. Every acknowledged
/// commit survives live, after the storm, and across a reopen; the
/// background thread's budgets actually fire under the new pipeline.
#[test]
fn checkpoints_and_auto_maintenance_under_parallel_writers() {
    const WRITERS: usize = 4;
    const UPDATES: i64 = 150;

    let (_dir, path) = tmp("maint-pipeline.wal");
    let opts = Options {
        maintenance: Some(MaintenanceOptions {
            interval: Duration::from_millis(1),
            vacuum_pruneable: 64,
            checkpoint_wal_bytes: 16 * 1024,
            checkpoint_wal_records: 400,
            ..MaintenanceOptions::default()
        }),
        ..common::options()
    };
    {
        let db = Database::open(&path, opts).unwrap();
        let mut tables = Vec::new();
        let mut rids = Vec::new();
        for k in 0..WRITERS {
            let t = db.create_table(seq_table(&format!("t{k}"))).unwrap();
            let mut setup = db.begin();
            rids.push(setup.insert(t, Row::new(vec![Value::Int(0)])).unwrap());
            setup.commit().unwrap();
            tables.push(t);
        }

        let start = Arc::new(Barrier::new(WRITERS + 1));
        let handles: Vec<_> = (0..WRITERS)
            .map(|k| {
                let db = db.clone();
                let start = start.clone();
                let (t, rid) = (tables[k], rids[k]);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 1..=UPDATES {
                        let mut txn = db.begin();
                        txn.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        // A manual checkpointer on top of the background one: both use
        // the same exclusive latch path.
        let ckpt = {
            let db = db.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..10 {
                    db.checkpoint().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        ckpt.join().unwrap();

        for k in 0..WRITERS {
            assert_eq!(int_at(&db, tables[k], rids[k]), UPDATES);
        }
        // Give the background thread a bounded window to demonstrate it
        // still fires under the new pipeline.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = db.stats();
            if stats.maintenance_vacuums > 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "auto-maintenance never ran under the pipeline: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let db = Database::open(&path, common::options()).unwrap();
    for k in 0..WRITERS {
        let t = db.table_id(&format!("t{k}")).unwrap();
        let rows = db.begin().scan(t, &Predicate::True).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.get(0).unwrap().as_int(), Some(UPDATES));
    }
}

/// The commit-wait and watermark-lag counters surface through
/// `Database::stats()` and move under a contended workload.
#[test]
fn pipeline_stats_are_surfaced() {
    let db = Database::open_in_memory();
    let t = db.create_table(seq_table("t")).unwrap();
    let start = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|w| {
            let db = db.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for i in 0..50i64 {
                    let mut txn = db.begin();
                    txn.insert(t, Row::new(vec![Value::Int(w * 1000 + i)]))
                        .unwrap();
                    txn.commit().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.commits, 200);
    // Concurrent allocation means at least one committer saw the
    // watermark trail its own timestamp.
    assert!(
        stats.watermark_lag_max >= 1,
        "no watermark lag observed under 4 concurrent writers: {stats:?}"
    );
    // DDL on a busy database registers an exclusive stall only when it
    // actually contends; just assert the counter is wired (readable).
    let _ = stats.ddl_stalls;
    let _ = stats.commit_wait_ns;
}
