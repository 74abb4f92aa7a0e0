//! Crash-simulation suite: real workloads on [`SimVfs`], crashed at
//! injected points, reopened, and checked against the commit-order-
//! prefix invariant at every durability level.
//!
//! What truncation sweeps (`recovery_faults.rs`) cannot model, this
//! suite does: unsynced page-cache bytes vanishing wholesale, fsyncs
//! that error and *drop* the dirty pages, torn final sectors, and
//! directory entries (creations, renames) whose durability lags the
//! file data they point at.
//!
//! Seed discipline: every test derives its schedule from explicit
//! seeds, and every assertion message carries the reproducing seed.
//! On a failure, rerun exactly that schedule with
//! `TENDAX_SIM_SEED=<n> cargo test -p tendax-storage --test sim_crash`.

mod common;

use std::sync::{Arc, Barrier, Mutex};

use tendax_storage::{
    ColdOptions, DataType, Database, DurabilityLevel, MaintenanceOptions, Options, Predicate, Row,
    RowId, SimVfs, StorageError, TableDef, TableId, Ts, Value, ValueRef,
};

const WAL: &str = "/sim/db.wal";

/// The seeds to sweep. `TENDAX_SIM_SEED=<n>` narrows the sweep to one
/// failing schedule; the default covers 32.
fn seeds() -> Vec<u64> {
    match std::env::var("TENDAX_SIM_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("TENDAX_SIM_SEED must be an integer, got {s:?}"))],
        Err(_) => (0..32).collect(),
    }
}

fn sim_opts(vfs: &SimVfs, durability: DurabilityLevel) -> Options {
    Options {
        durability,
        vfs: Arc::new(vfs.clone()),
        ..common::options()
    }
}

fn table_def(name: &str) -> TableDef {
    TableDef::new(name).column("seq", DataType::Int)
}

const DURABILITY_LEVELS: [DurabilityLevel; 3] = [
    DurabilityLevel::None,
    DurabilityLevel::Buffered,
    DurabilityLevel::Fsync,
];

/// Commit seq = 0..n single-row transactions sequentially; returns how
/// many commits were acknowledged. Stops at the first error (the
/// injected power cut) — later calls would all fail anyway.
fn run_sequential(vfs: &SimVfs, durability: DurabilityLevel, n: i64) -> usize {
    let Ok(db) = Database::open(WAL, sim_opts(vfs, durability)) else {
        return 0;
    };
    let Ok(t) = db.create_table(table_def("t")) else {
        return 0;
    };
    let mut acked = 0;
    for i in 0..n {
        let mut txn = db.begin();
        if txn.insert(t, Row::new(vec![Value::Int(i)])).is_err() {
            break;
        }
        if txn.commit().is_err() {
            break;
        }
        acked += 1;
    }
    acked
}

/// The sorted `seq` values recovered for `name` (empty if the cut fell
/// before the table's DDL record).
fn recovered_seqs(db: &Database, name: &str) -> Vec<i64> {
    match db.table_id(name) {
        Ok(t) => {
            let mut v: Vec<i64> = db
                .begin()
                .scan(t, &Predicate::True)
                .unwrap()
                .iter()
                .map(|(_, r)| r.get(0).unwrap().as_int().unwrap())
                .collect();
            v.sort_unstable();
            v
        }
        Err(_) => Vec::new(),
    }
}

// ------------------------------------------------------------ basic sanity

/// No faults: the simulated disk behaves like a disk. Every durability
/// level commits, closes, reopens, and reads everything back.
#[test]
fn sim_backend_roundtrips_all_levels() {
    for durability in DURABILITY_LEVELS {
        let vfs = SimVfs::new(0);
        assert_eq!(run_sequential(&vfs, durability, 10), 10);
        let db = Database::open(WAL, sim_opts(&vfs, durability)).unwrap();
        assert_eq!(
            recovered_seqs(&db, "t"),
            (0..10).collect::<Vec<_>>(),
            "{durability:?}: clean reopen lost rows"
        );
    }
}

// ------------------------------------------------- crash-point exhaustion

/// The core sweep: for every seed and every durability level, cut the power at *every* op index the fault-free schedule
/// contains, crash, reopen, and require a commit-order prefix — plus,
/// at `Fsync`, that every acknowledged commit survived.
#[test]
fn crash_at_every_injected_op_recovers_a_commit_prefix() {
    const N: i64 = 6;
    for seed in seeds() {
        for durability in DURABILITY_LEVELS {
            // Fault-free twin run: measures the op schedule to sweep.
            let twin = SimVfs::new(seed);
            let acked = run_sequential(&twin, durability, N);
            assert_eq!(
                acked as i64, N,
                "seed {seed} {durability:?}: fault-free run failed"
            );
            let total_ops = twin.ops();
            assert!(total_ops > 0);

            for cut in 0..total_ops {
                let vfs = SimVfs::new(seed);
                vfs.power_fail_after(cut);
                let acked = run_sequential(&vfs, durability, N);
                vfs.crash();

                let ctx = format!(
                    "seed {seed} {durability:?} \
                     cut {cut}/{total_ops} (rerun with TENDAX_SIM_SEED={seed})"
                );
                let db = Database::open(WAL, sim_opts(&vfs, durability))
                    .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
                let got = recovered_seqs(&db, "t");
                let expected: Vec<i64> = (0..got.len() as i64).collect();
                assert_eq!(
                    got, expected,
                    "{ctx}: recovery is not a commit-order prefix"
                );
                assert!(
                    got.len() as i64 <= N,
                    "{ctx}: recovered rows never committed"
                );
                if durability == DurabilityLevel::Fsync {
                    assert!(
                        got.len() >= acked,
                        "{ctx}: {acked} commits were acknowledged at Fsync but only \
                         {} survived the crash",
                        got.len()
                    );
                }
            }
        }
    }
}

// -------------------------------------------------- disjoint writer storm

/// Threaded storm: writers on disjoint tables race until the power
/// cut. After crash + reopen, each writer's recovered seqs must be
/// contiguous from 0 (the replayed log is a commit-ts prefix, and each
/// writer's commits carry ascending timestamps); recovery must be
/// downward-closed over acknowledged commit timestamps across *all*
/// writers; and at `Fsync` no acknowledged commit may be missing.
#[test]
fn disjoint_writer_storm_crash_keeps_commit_order_prefix() {
    const WRITERS: usize = 3;
    const COMMITS: i64 = 30;
    for seed in seeds() {
        for durability in [DurabilityLevel::Fsync, DurabilityLevel::Buffered] {
            // Twin storm estimates the post-setup op schedule length.
            let est = {
                let twin = SimVfs::new(seed);
                let before = {
                    let db = Database::open(WAL, sim_opts(&twin, durability)).unwrap();
                    for k in 0..WRITERS {
                        db.create_table(table_def(&format!("t{k}"))).unwrap();
                    }
                    twin.ops()
                };
                let acked = storm(&twin, durability, WRITERS, COMMITS, None);
                assert_eq!(acked.len() as i64, WRITERS as i64 * COMMITS);
                twin.ops() - before
            };

            // One seed-derived cut point per schedule; the seed sweep
            // covers the range.
            let cut = est * (seed % 8 + 1) / 9;
            let vfs = SimVfs::new(seed);
            let acked = storm(&vfs, durability, WRITERS, COMMITS, Some(cut));
            vfs.crash();

            let ctx = format!(
                "seed {seed} {durability:?} cut {cut}/{est} \
                 (rerun with TENDAX_SIM_SEED={seed})"
            );
            let db = Database::open(WAL, sim_opts(&vfs, durability))
                .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));

            let mut recovered_by_writer = Vec::new();
            for k in 0..WRITERS {
                let got = recovered_seqs(&db, &format!("t{k}"));
                let expected: Vec<i64> = (0..got.len() as i64).collect();
                assert_eq!(got, expected, "{ctx}: writer {k} has a gap");
                recovered_by_writer.push(got.len() as i64);
            }

            // Downward closure: if an acked commit at ts X survived,
            // every acked commit with a smaller ts survived too — the
            // WAL drains frames in timestamp order, so recovery can
            // never skip over an earlier commit.
            let mut acked_sorted = acked.clone();
            acked_sorted.sort_unstable();
            let mut seen_missing_at: Option<Ts> = None;
            for &(ts, writer, seq) in &acked_sorted {
                let survived = seq < recovered_by_writer[writer];
                match (survived, seen_missing_at) {
                    (true, Some(missing)) => panic!(
                        "{ctx}: commit ts {ts} (writer {writer} seq {seq}) survived \
                         but earlier acked ts {missing} did not"
                    ),
                    (false, None) => seen_missing_at = Some(ts),
                    _ => {}
                }
            }
            if durability == DurabilityLevel::Fsync {
                if let Some(missing) = seen_missing_at {
                    panic!("{ctx}: acked commit ts {missing} lost at Fsync");
                }
            }
        }
    }
}

/// Run the writer storm, creating tables `t0..tN` first if a previous
/// life of this disk didn't already. Arms the power cut (if any) only
/// after setup. Returns every acknowledged `(ts, writer, seq)`.
fn storm(
    vfs: &SimVfs,
    durability: DurabilityLevel,
    writers: usize,
    commits: i64,
    cut: Option<u64>,
) -> Vec<(Ts, usize, i64)> {
    let acked: Arc<Mutex<Vec<(Ts, usize, i64)>>> = Arc::default();
    let Ok(db) = Database::open(WAL, sim_opts(vfs, durability)) else {
        return Vec::new();
    };
    let mut tables: Vec<TableId> = Vec::new();
    for k in 0..writers {
        let name = format!("t{k}");
        match db
            .table_id(&name)
            .or_else(|_| db.create_table(table_def(&name)))
        {
            Ok(t) => tables.push(t),
            Err(_) => return Vec::new(),
        }
    }
    // Arm the cut only after setup so the sweep spends itself on the
    // racing commits, not on DDL (covered by the ddl_race test).
    if let Some(cut) = cut {
        vfs.power_fail_after(cut);
    }
    let start = Arc::new(Barrier::new(writers));
    let handles: Vec<_> = (0..writers)
        .map(|k| {
            let db = db.clone();
            let acked = acked.clone();
            let start = start.clone();
            let t = tables[k];
            std::thread::spawn(move || {
                start.wait();
                for i in 0..commits {
                    let mut txn = db.begin();
                    if txn.insert(t, Row::new(vec![Value::Int(i)])).is_err() {
                        break;
                    }
                    match txn.commit() {
                        Ok(ts) => acked.lock().unwrap().push((ts, k, i)),
                        Err(_) => break,
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(db);
    Arc::try_unwrap(acked).unwrap().into_inner().unwrap()
}

// ------------------------------------------------------------- DDL races

/// Writers race a DDL thread cycling scratch tables, the power cuts at
/// a seed-derived point, and the machine crashes. The database must
/// *reopen* — replay must never order a DropTable ahead of a commit
/// that still references the table — and the fixed tables must recover
/// as gapless prefixes.
#[test]
fn ddl_race_crash_always_reopens() {
    const WRITERS: usize = 2;
    const COMMITS: i64 = 25;
    const DDL_CYCLES: usize = 8;
    for seed in seeds() {
        let durability = DurabilityLevel::Buffered;
        let vfs = SimVfs::new(seed);
        {
            let db = Database::open(WAL, sim_opts(&vfs, durability)).unwrap();
            let tables: Vec<TableId> = (0..WRITERS)
                .map(|k| db.create_table(table_def(&format!("t{k}"))).unwrap())
                .collect();
            // Cut somewhere inside the storm; the exact op index is
            // seed-derived so the sweep covers the schedule.
            vfs.power_fail_after(7 + seed * 11 % 400);

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
                            if txn.insert(t, Row::new(vec![Value::Int(i)])).is_err() {
                                break;
                            }
                            if txn.commit().is_err() {
                                break;
                            }
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
                        let Ok(t) = db.create_table(table_def(&name)) else {
                            break;
                        };
                        let mut txn = db.begin();
                        if txn.insert(t, Row::new(vec![Value::Int(c as i64)])).is_err() {
                            break;
                        }
                        let _ = txn.commit();
                        if db.drop_table(&name).is_err() {
                            break;
                        }
                    }
                })
            };
            for h in writers {
                h.join().unwrap();
            }
            ddl.join().unwrap();
        }
        vfs.crash();

        let ctx = format!("seed {seed} (rerun with TENDAX_SIM_SEED={seed})");
        let db = Database::open(WAL, sim_opts(&vfs, durability))
            .unwrap_or_else(|e| panic!("{ctx}: reopen after DDL-race crash failed: {e}"));
        for k in 0..WRITERS {
            let got = recovered_seqs(&db, &format!("t{k}"));
            let expected: Vec<i64> = (0..got.len() as i64).collect();
            assert_eq!(got, expected, "{ctx}: writer table t{k} has a gap");
        }
        // And the recovered database accepts writes — t0's own DDL
        // may legitimately have died with the cut (Buffered never
        // syncs), so exercise the write path on a fresh table.
        let t = db
            .create_table(table_def("post_crash"))
            .unwrap_or_else(|e| panic!("{ctx}: recovered db rejects DDL: {e}"));
        let mut txn = db.begin();
        txn.insert(t, Row::new(vec![Value::Int(777)])).unwrap();
        txn.commit()
            .unwrap_or_else(|e| panic!("{ctx}: recovered db rejects writes: {e}"));
    }
}

// ---------------------------------------------------- auto-maintenance on

/// Auto-maintenance (checkpoints rewriting the log underneath the
/// workload) plus a power cut: whatever the checkpoint was doing when
/// the lights went out, recovery is still a commit-order prefix, and
/// at `Fsync` acknowledged commits still all survive.
#[test]
fn auto_maintenance_crash_recovers_commit_prefix() {
    const N: i64 = 60;
    for seed in seeds() {
        let vfs = SimVfs::new(seed);
        let opts = Options {
            durability: DurabilityLevel::Fsync,
            maintenance: Some(MaintenanceOptions {
                interval: std::time::Duration::from_millis(1),
                checkpoint_wal_bytes: 1024,
                checkpoint_wal_records: 16,
                vacuum_pruneable: 16,
                ..MaintenanceOptions::default()
            }),
            vfs: Arc::new(vfs.clone()),
            ..common::options()
        };
        let mut acked = 0i64;
        {
            let db = Database::open(WAL, opts).unwrap();
            let t = db.create_table(table_def("t")).unwrap();
            vfs.power_fail_after(11 + seed * 13 % 500);
            for i in 0..N {
                let mut txn = db.begin();
                if txn.insert(t, Row::new(vec![Value::Int(i)])).is_err() {
                    break;
                }
                if txn.commit().is_err() {
                    break;
                }
                acked = i + 1;
                // Give the maintenance thread real chances to interleave
                // checkpoints with the commit stream.
                if i % 8 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        vfs.crash();

        let ctx = format!("seed {seed} (rerun with TENDAX_SIM_SEED={seed})");
        let db = Database::open(WAL, sim_opts(&vfs, DurabilityLevel::Fsync))
            .unwrap_or_else(|e| panic!("{ctx}: reopen after maintenance crash failed: {e}"));
        let got = recovered_seqs(&db, "t");
        let expected: Vec<i64> = (0..got.len() as i64).collect();
        assert_eq!(got, expected, "{ctx}: not a commit-order prefix");
        assert!(
            got.len() as i64 >= acked,
            "{ctx}: {acked} commits acked at Fsync, only {} recovered",
            got.len()
        );
    }
}

// --------------------------------------------------- checkpoint copy/swap

/// Exhaustive crash sweep over the checkpoint's tmp-write / rename /
/// dir-sync dance, at `Fsync`: the checkpoint must never lose a
/// durable commit, no matter which op the power dies on — the exact
/// rename-vs-data-reordering bug class the copy/swap protocol exists
/// to prevent.
#[test]
fn checkpoint_crash_never_loses_fsynced_commits() {
    const N: i64 = 8;
    let d = DurabilityLevel::Fsync;
    for seed in seeds() {
        // Twin: measure how many ops the checkpoint itself performs.
        let ckpt_ops = {
            let twin = SimVfs::new(seed);
            assert_eq!(run_sequential(&twin, d, N), N as usize);
            let db = Database::open(WAL, sim_opts(&twin, d)).unwrap();
            let before = twin.ops();
            db.checkpoint().unwrap();
            twin.ops() - before
        };
        assert!(ckpt_ops > 0);

        for cut in 0..ckpt_ops {
            let vfs = SimVfs::new(seed);
            assert_eq!(run_sequential(&vfs, d, N), N as usize);
            let ctx = format!(
                "seed {seed} checkpoint cut {cut}/{ckpt_ops} \
                     (rerun with TENDAX_SIM_SEED={seed})"
            );
            {
                let db = Database::open(WAL, sim_opts(&vfs, d)).unwrap();
                vfs.power_fail_after(cut);
                let _ = db.checkpoint(); // the cut makes this fail; that's the point
            }
            vfs.crash();

            let db = Database::open(WAL, sim_opts(&vfs, d))
                .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
            assert_eq!(
                recovered_seqs(&db, "t"),
                (0..N).collect::<Vec<_>>(),
                "{ctx}: checkpoint crash lost fsynced commits"
            );
            // Still writable, and a clean checkpoint completes after the
            // crashed one (stale tmp file, resurrected old log, or a
            // half-spliced tail must not wedge it).
            let t = db.table_id("t").unwrap();
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(N)])).unwrap();
            txn.commit().unwrap();
            db.checkpoint()
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery checkpoint failed: {e}"));
        }
    }
}

// -------------------------------------------------------- sticky poisoning

/// Regression: after a failed group fsync the WAL must poison itself —
/// the dirty pages are gone (fsyncgate), so pretending a retry could
/// make that data durable would be a lie. Every later commit and DDL
/// must fail with `WalUnavailable`, while reads keep working; after a
/// crash, recovery holds only what was durable before the bad sync.
#[test]
fn failed_group_fsync_poisons_wal_sticky() {
    for seed in seeds() {
        let vfs = SimVfs::new(seed);
        let ctx = format!("seed {seed} (rerun with TENDAX_SIM_SEED={seed})");
        {
            let db = Database::open(WAL, sim_opts(&vfs, DurabilityLevel::Fsync)).unwrap();
            let t = db.create_table(table_def("t")).unwrap();
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
            txn.commit().unwrap();

            vfs.fail_next_syncs(1);
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(1)])).unwrap();
            let err = txn.commit().unwrap_err();
            assert!(
                matches!(err, StorageError::WalUnavailable(_)),
                "{ctx}: failed fsync surfaced as {err:?}"
            );

            // Sticky: the disk is healthy again, but the log must stay
            // poisoned — the unsynced frames are unrecoverable.
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(2)])).unwrap();
            let err = txn.commit().unwrap_err();
            assert!(
                matches!(err, StorageError::WalUnavailable(_)),
                "{ctx}: poisoning did not stick: {err:?}"
            );
            assert!(
                matches!(
                    db.create_table(table_def("more")),
                    Err(StorageError::WalUnavailable(_))
                ),
                "{ctx}: DDL got through a poisoned log"
            );

            // Reads are unaffected. Seq 1 was published before its
            // durability wait failed, so it stays visible in memory;
            // seq 2 was refused by the poisoned log before publication
            // and must not be.
            assert_eq!(
                recovered_seqs(&db, "t"),
                vec![0, 1],
                "{ctx}: in-memory visibility diverged"
            );
        }
        vfs.crash();

        let db = Database::open(WAL, sim_opts(&vfs, DurabilityLevel::Fsync))
            .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
        assert_eq!(
            recovered_seqs(&db, "t"),
            vec![0],
            "{ctx}: recovery must hold exactly the pre-poison durable prefix"
        );
    }
}

// ----------------------------------------------------- lying-fsync blips

/// A transient "power blip" (ops fail, then power restores *without*
/// losing the page cache) must leave the engine either poisoned or
/// fully consistent — never silently dropping acked commits on the
/// floor once power is back.
#[test]
fn power_blip_keeps_database_consistent() {
    for seed in seeds() {
        let vfs = SimVfs::new(seed);
        let ctx = format!("seed {seed} (rerun with TENDAX_SIM_SEED={seed})");
        let db = Database::open(WAL, sim_opts(&vfs, DurabilityLevel::Fsync)).unwrap();
        let t = db.create_table(table_def("t")).unwrap();
        for i in 0..5 {
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
            txn.commit().unwrap();
        }
        vfs.power_fail_after(2 + seed % 5);
        let mut blipped = 0i64;
        for i in 5..12 {
            let mut txn = db.begin();
            if txn.insert(t, Row::new(vec![Value::Int(i)])).is_err() {
                break;
            }
            match txn.commit() {
                Ok(_) => blipped = i - 4,
                Err(_) => break,
            }
        }
        vfs.restore_power();
        // After the blip the engine must sit in exactly one of two
        // states: poisoned (refuses new commits before publishing them)
        // or healthy (acks them and makes them durable). Either way the
        // visible rows stay a gapless seq prefix — commits that were
        // published before their durability wait failed legitimately
        // remain visible, but nothing may be skipped.
        let mut txn = db.begin();
        txn.insert(t, Row::new(vec![Value::Int(100)])).unwrap();
        let post_blip = txn.commit();
        let visible = recovered_seqs(&db, "t");
        let body: Vec<i64> = visible.iter().copied().filter(|&v| v != 100).collect();
        let want: Vec<i64> = (0..body.len() as i64).collect();
        assert_eq!(body, want, "{ctx}: blip left a gap in visible commits");
        assert!(
            body.len() as i64 >= 5 + blipped,
            "{ctx}: acked commits vanished from memory: {visible:?}"
        );
        assert_eq!(
            post_blip.is_ok(),
            visible.contains(&100),
            "{ctx}: commit ack and visibility disagree (ok={}, visible={visible:?})",
            post_blip.is_ok()
        );
        drop(db);
        if post_blip.is_ok() {
            // Healthy path: the post-blip ack must survive a real crash.
            vfs.crash();
            let db = Database::open(WAL, sim_opts(&vfs, DurabilityLevel::Fsync))
                .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
            let recovered = recovered_seqs(&db, "t");
            assert!(
                recovered.contains(&100),
                "{ctx}: post-blip acked commit lost: {recovered:?}"
            );
        }
    }
}

// ----------------------------------------------------- torn patches

/// Column updates through the crash sweep: transactions one after the
/// other update one column of one shared row, `prev` then `next` in
/// turn, so every commit's WAL frame is a `Patch` of one column that
/// replay composes onto the row the log rebuilt so far. The power cuts
/// at every op of the fault-free schedule; after crash + reopen the
/// recovered row must equal the state after some *commit-order prefix*
/// of the acknowledged sequence (a torn log must never replay a later
/// patch without the earlier ones below it), and at `Fsync` every
/// acknowledged patch must survive.
#[test]
fn torn_patches_replay_as_commit_order_prefix() {
    const PAIRS: u64 = 5;

    fn links_def() -> TableDef {
        TableDef::new("links")
            .nullable_column("prev", DataType::Id)
            .nullable_column("next", DataType::Id)
    }

    /// `(prev, next)` after `k` of the patch commits (commit `2i-1` sets
    /// `prev = i`, commit `2i` sets `next = i`).
    fn state_after(k: usize) -> (Option<u64>, Option<u64>) {
        let prev = k.div_ceil(2) as u64;
        let next = (k / 2) as u64;
        ((prev > 0).then_some(prev), (next > 0).then_some(next))
    }

    /// Run the patch workload; returns how many patch commits were
    /// acknowledged (the ack sequence is serial, so its commit order is
    /// its index order).
    fn patch_run(vfs: &SimVfs, durability: DurabilityLevel) -> usize {
        let Ok(db) = Database::open(WAL, sim_opts(vfs, durability)) else {
            return 0;
        };
        let Ok(t) = db.create_table(links_def()) else {
            return 0;
        };
        let mut txn = db.begin();
        let Ok(rid) = txn.insert(t, Row::new(vec![Value::Null, Value::Null])) else {
            return 0;
        };
        if txn.commit().is_err() {
            return 0;
        }
        let mut acked = 0;
        for i in 1..=PAIRS {
            for col in ["prev", "next"] {
                let mut txn = db.begin();
                if txn.set(t, rid, &[(col, Value::Id(i))]).is_err() || txn.commit().is_err() {
                    return acked;
                }
                acked += 1;
            }
        }
        acked
    }

    for seed in seeds() {
        for durability in [DurabilityLevel::Fsync, DurabilityLevel::Buffered] {
            let twin = SimVfs::new(seed);
            let acked = patch_run(&twin, durability);
            assert_eq!(acked as u64, PAIRS * 2, "fault-free twin failed");
            let total_ops = twin.ops();

            for cut in 0..total_ops {
                let vfs = SimVfs::new(seed);
                vfs.power_fail_after(cut);
                let acked = patch_run(&vfs, durability);
                vfs.crash();

                let ctx = format!(
                    "seed {seed} {durability:?} cut {cut}/{total_ops} \
                     (rerun with TENDAX_SIM_SEED={seed})"
                );
                let db = Database::open(WAL, sim_opts(&vfs, durability))
                    .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));

                let recovered: Option<(Option<u64>, Option<u64>)> = match db.table_id("links") {
                    Err(_) => None,
                    Ok(t) => db
                        .begin()
                        .scan(t, &Predicate::True)
                        .unwrap()
                        .first()
                        .map(|(_, r)| (r.get(0).unwrap().as_id(), r.get(1).unwrap().as_id())),
                };
                // The recovered state must be the state after SOME prefix
                // of the commit order: a torn patch (a later column
                // without the earlier committed version it composed onto)
                // matches no prefix state and fails here.
                let got = recovered.unwrap_or((None, None));
                let prefix = (0..=(PAIRS as usize) * 2).find(|&k| state_after(k) == got);
                let k = prefix.unwrap_or_else(|| {
                    panic!("{ctx}: recovered state {got:?} matches no commit-order prefix")
                });
                if durability == DurabilityLevel::Fsync {
                    assert!(
                        k >= acked,
                        "{ctx}: {acked} patches acked at Fsync but only {k} survived"
                    );
                }
            }
        }
    }
}

// --------------------------------------------- cold tier under power cut

fn cold_opts(vfs: &SimVfs) -> Options {
    Options {
        durability: DurabilityLevel::Fsync,
        vfs: Arc::new(vfs.clone()),
        cold_storage: Some(ColdOptions {
            memtable_version_budget: 8,
            block_bytes: 256,
            bloom_bits_per_key: 10,
            compact_min_runs: 2,
        }),
        ..common::options()
    }
}

/// One row updated `rounds` times at Fsync, with a vacuum every
/// `vacuum_every` commits (0 = never). Returns the table, row, and the
/// commit ts of every round — value at `ts[i]` is `Int(i)`.
fn cold_history_run(
    vfs: &SimVfs,
    rounds: i64,
    vacuum_every: i64,
) -> Option<(TableId, RowId, Vec<Ts>)> {
    let db = Database::open(WAL, cold_opts(vfs)).ok()?;
    let t = db.create_table(table_def("t")).ok()?;
    let mut txn = db.begin();
    let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).ok()?;
    let mut tss = vec![txn.commit().ok()?];
    for i in 1..rounds {
        let mut txn = db.begin();
        txn.update(t, rid, Row::new(vec![Value::Int(i)])).ok()?;
        tss.push(txn.commit().ok()?);
        if vacuum_every > 0 && i % vacuum_every == 0 {
            db.vacuum();
        }
    }
    Some((t, rid, tss))
}

/// Check that every round's snapshot reads its exact value. Snapshots
/// the engine refuses (`SnapshotTooOld`) are tolerated only below
/// `retain_from` — everything at or above it must be served.
fn assert_history(db: &Database, t: TableId, rid: RowId, tss: &[Ts], retain_from: Ts, ctx: &str) {
    for (i, &ts) in tss.iter().enumerate() {
        match db.begin_at(ts) {
            Ok(txn) => {
                let row = txn
                    .get(t, rid)
                    .unwrap_or_else(|e| panic!("{ctx}: get at round {i} failed: {e}"))
                    .unwrap_or_else(|| panic!("{ctx}: round {i} row missing"));
                assert_eq!(
                    row.get(0),
                    Some(ValueRef::Int(i as i64)),
                    "{ctx}: wrong bytes at round {i}"
                );
            }
            Err(StorageError::SnapshotTooOld { .. }) if ts < retain_from => {}
            Err(e) => panic!("{ctx}: begin_at round {i} failed: {e}"),
        }
    }
}

/// Power cuts swept through a *demoting vacuum*: every charged op of
/// the run write, directory sync, and manifest swap. Whatever the cut
/// tore, reopen must succeed (orphan runs and stale manifest tmp files
/// are swept), every historical snapshot must read its exact bytes,
/// and a retried demotion plus compaction must complete cleanly.
#[test]
fn cold_demotion_crash_preserves_every_snapshot() {
    const ROUNDS: i64 = 16;
    for seed in seeds() {
        // Twin: measure the demoting vacuum's op schedule.
        let demote_ops = {
            let twin = SimVfs::new(seed);
            let (_, _, tss) = cold_history_run(&twin, ROUNDS, 0).expect("fault-free run failed");
            assert_eq!(tss.len() as i64, ROUNDS);
            let db = Database::open(WAL, cold_opts(&twin)).unwrap();
            let before = twin.ops();
            assert!(db.vacuum() > 0, "seed {seed}: twin vacuum demoted nothing");
            twin.ops() - before
        };
        assert!(demote_ops > 0, "seed {seed}: demotion charged no ops");

        for cut in 0..demote_ops {
            let vfs = SimVfs::new(seed);
            let (t, rid, tss) = cold_history_run(&vfs, ROUNDS, 0).unwrap();
            let ctx = format!(
                "seed {seed} demotion cut {cut}/{demote_ops} \
                 (rerun with TENDAX_SIM_SEED={seed})"
            );
            {
                let db = Database::open(WAL, cold_opts(&vfs)).unwrap();
                vfs.power_fail_after(cut);
                db.vacuum(); // the cut may abort this mid-demotion
            }
            vfs.crash();

            let db = Database::open(WAL, cold_opts(&vfs))
                .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
            assert_history(&db, t, rid, &tss, 0, &ctx);

            // Retry: a clean demotion and compaction must go through on
            // top of whatever the torn one left, and history must still
            // be byte-exact when served from the cold tier.
            db.vacuum();
            let _ = db
                .cold_compact_if_needed()
                .unwrap_or_else(|e| panic!("{ctx}: post-crash compaction failed: {e}"));
            assert_history(&db, t, rid, &tss, 0, &ctx);
        }
    }
}

/// Power cuts swept through retention-floor persistence and cold
/// compaction (the manifest-rewriting operations): reopen must
/// succeed, snapshots at or above the requested floor must keep their
/// exact bytes, refused snapshots may exist only below it, and a
/// retried compaction must complete.
#[test]
fn cold_compaction_crash_keeps_retained_history() {
    const ROUNDS: i64 = 16;
    const RETAIN_ROUND: usize = 8;
    for seed in seeds() {
        let compact_ops = {
            let twin = SimVfs::new(seed);
            let (_, _, tss) = cold_history_run(&twin, ROUNDS, 4).expect("fault-free run failed");
            let db = Database::open(WAL, cold_opts(&twin)).unwrap();
            db.vacuum(); // re-demote replayed history → several runs live
            let before = twin.ops();
            db.set_lineage_retention(tss[RETAIN_ROUND]).unwrap();
            assert!(
                db.cold_compact_if_needed().unwrap(),
                "seed {seed}: twin compaction did not run"
            );
            twin.ops() - before
        };
        assert!(compact_ops > 0);

        for cut in 0..compact_ops {
            let vfs = SimVfs::new(seed);
            let (t, rid, tss) = cold_history_run(&vfs, ROUNDS, 4).unwrap();
            let retain_from = tss[RETAIN_ROUND];
            let ctx = format!(
                "seed {seed} compaction cut {cut}/{compact_ops} \
                 (rerun with TENDAX_SIM_SEED={seed})"
            );
            {
                let db = Database::open(WAL, cold_opts(&vfs)).unwrap();
                db.vacuum();
                vfs.power_fail_after(cut);
                let _ = db.set_lineage_retention(retain_from);
                let _ = db.cold_compact_if_needed(); // may die mid-rewrite
            }
            vfs.crash();

            let db = Database::open(WAL, cold_opts(&vfs))
                .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
            assert_history(&db, t, rid, &tss, retain_from, &ctx);

            // Retry the whole sequence cleanly and re-verify.
            db.set_lineage_retention(retain_from)
                .unwrap_or_else(|e| panic!("{ctx}: retried retention failed: {e}"));
            db.vacuum();
            let _ = db
                .cold_compact_if_needed()
                .unwrap_or_else(|e| panic!("{ctx}: retried compaction failed: {e}"));
            assert_history(&db, t, rid, &tss, retain_from, &ctx);
        }
    }
}
