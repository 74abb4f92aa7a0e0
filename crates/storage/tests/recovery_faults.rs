//! Fault-injection tests for WAL recovery: arbitrary crash points must
//! never corrupt the database — recovery yields exactly a prefix of the
//! committed transactions. Crash points come in two flavors here:
//! truncating a real log at any byte, and the same sweep on [`SimVfs`]
//! with true lost-write semantics (unsynced bytes vanish wholesale, the
//! tail may tear mid-sector) — see `tests/sim_crash.rs` for the full
//! crash-simulation suite.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use tendax_storage::wal::segment_path;
use tendax_storage::{
    DataType, Database, DurabilityLevel, Options, Predicate, Row, SimVfs, TableDef, Value,
};

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-fault");
    let p = dir.file(name);
    (dir, p)
}

fn table_def() -> TableDef {
    TableDef::new("t")
        .column("seq", DataType::Int)
        .index("by_seq", &["seq"])
}

/// Write `n` single-row transactions (seq = 0..n) and return the log.
fn build_log(path: &PathBuf, n: i64) {
    let db = Database::open(path, common::options()).unwrap();
    let t = db.create_table(table_def()).unwrap();
    for i in 0..n {
        let mut txn = db.begin();
        txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
        txn.commit().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at any byte leaves a recoverable prefix: the surviving
    /// rows are exactly seq = 0..k for some k ≤ n, in order.
    #[test]
    fn truncation_always_recovers_a_prefix(n in 1i64..12, cut_frac in 0.0f64..1.0) {
        let (_dir, path) = tmp(&format!("prefix-{n}.wal"));
        build_log(&path, n);
        let data = std::fs::read(&path).unwrap();
        let cut = ((data.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &data[..cut]).unwrap();

        let db = Database::open(&path, common::options()).unwrap();
        match db.table_id("t") {
            Err(_) => {
                // Truncated before the DDL record: an empty database is a
                // valid prefix.
            }
            Ok(t) => {
                let rows = db.begin().scan(t, &Predicate::True).unwrap();
                let seqs: Vec<i64> = rows
                    .iter()
                    .map(|(_, r)| r.get(0).unwrap().as_int().unwrap())
                    .collect();
                let expected: Vec<i64> = (0..seqs.len() as i64).collect();
                prop_assert_eq!(&seqs, &expected, "must be a commit prefix");
                prop_assert!(seqs.len() as i64 <= n);
            }
        }
    }

    /// After any truncation, the database accepts new writes and they
    /// survive another clean reopen.
    #[test]
    fn recovered_database_is_writable(n in 1i64..8, cut_frac in 0.0f64..1.0) {
        let (_dir, path) = tmp(&format!("writable-{n}.wal"));
        build_log(&path, n);
        let data = std::fs::read(&path).unwrap();
        let cut = ((data.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &data[..cut]).unwrap();

        let survivors;
        {
            let db = Database::open(&path, common::options()).unwrap();
            let t = match db.table_id("t") {
                Ok(t) => t,
                Err(_) => db.create_table(table_def()).unwrap(),
            };
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Int(777)])).unwrap();
            txn.commit().unwrap();
            survivors = db.begin().count(t, &Predicate::True).unwrap();
        }
        let db = Database::open(&path, common::options()).unwrap();
        let t = db.table_id("t").unwrap();
        let reader = db.begin();
        prop_assert_eq!(reader.count(t, &Predicate::True).unwrap(), survivors);
        prop_assert_eq!(
            reader
                .scan(t, &Predicate::Eq("seq".into(), Value::Int(777)))
                .unwrap()
                .len(),
            1
        );
    }

    /// Checkpoint + truncation of the *fresh* tail still recovers at
    /// least the checkpointed state.
    #[test]
    fn checkpoint_state_survives_tail_truncation(n in 2i64..8, extra in 1i64..5, tail_frac in 0.0f64..1.0) {
        let (_dir, path) = tmp(&format!("ckpt-{n}-{extra}.wal"));
        {
            let db = Database::open(&path, common::options()).unwrap();
            let t = db.create_table(table_def()).unwrap();
            for i in 0..n {
                let mut txn = db.begin();
                txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
                txn.commit().unwrap();
            }
            db.checkpoint().unwrap();
            for i in 0..extra {
                let mut txn = db.begin();
                txn.insert(t, Row::new(vec![Value::Int(n + i)])).unwrap();
                txn.commit().unwrap();
            }
            drop(db);
            // Truncate somewhere in the post-checkpoint tail only: the
            // segment the checkpoint switched to, past its format frame.
            let segment = segment_path(&path, 1);
            let data = std::fs::read(&segment).unwrap();
            let cut = 10 + ((data.len() - 10) as f64 * tail_frac) as usize;
            std::fs::write(&segment, &data[..cut]).unwrap();
        }
        let db = Database::open(&path, common::options()).unwrap();
        let t = db.table_id("t").unwrap();
        let count = db.begin().count(t, &Predicate::True).unwrap() as i64;
        prop_assert!(count >= n, "checkpointed rows lost: {count} < {n}");
        prop_assert!(count <= n + extra);
    }
}

// ----------------------------------------------------------- SimVfs twin

const SIM_WAL: &str = "/sim/fault.wal";

fn sim_opts(vfs: &SimVfs, durability: DurabilityLevel) -> Options {
    Options {
        durability,
        vfs: Arc::new(vfs.clone()),
        ..common::options()
    }
}

/// `build_log` against the simulated disk, tolerating the injected
/// power cut mid-build. Returns how many commits were acknowledged.
fn build_log_on(vfs: &SimVfs, durability: DurabilityLevel, n: i64) -> i64 {
    let Ok(db) = Database::open(SIM_WAL, sim_opts(vfs, durability)) else {
        return 0;
    };
    let Ok(t) = db.create_table(table_def()) else {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The truncation sweep's SimVfs twin: instead of slicing bytes off
    /// a healthy log, cut the power after an arbitrary fraction of the
    /// op schedule and crash the machine. This models what truncation
    /// cannot: unsynced writes vanish wholesale (not just the tail),
    /// fsync boundaries decide survival, and the last sector may tear.
    /// Recovery must still be exactly a commit-order prefix — and at
    /// `Fsync`, hold every acknowledged commit.
    #[test]
    fn sim_power_cut_always_recovers_a_prefix(
        n in 1i64..12,
        seed in 0u64..1024,
        cut_frac in 0.0f64..1.0,
        fsync in 0u8..2,
    ) {
        let durability = if fsync == 1 {
            DurabilityLevel::Fsync
        } else {
            DurabilityLevel::Buffered
        };
        // Fault-free twin measures the op schedule to cut into.
        let twin = SimVfs::new(seed);
        prop_assert_eq!(build_log_on(&twin, durability, n), n);
        let cut = ((twin.ops() as f64) * cut_frac) as u64;

        let vfs = SimVfs::new(seed);
        vfs.power_fail_after(cut);
        let acked = build_log_on(&vfs, durability, n);
        vfs.crash();

        let db = Database::open(SIM_WAL, sim_opts(&vfs, durability))
            .unwrap_or_else(|e| panic!(
                "seed {seed} cut {cut} {durability:?}: reopen failed: {e} \
                 (rerun with TENDAX_SIM_SEED={seed})"
            ));
        let seqs: Vec<i64> = match db.table_id("t") {
            // Cut fell before the DDL record became durable: an empty
            // database is a valid prefix.
            Err(_) => Vec::new(),
            Ok(t) => db
                .begin()
                .scan(t, &Predicate::True)
                .unwrap()
                .iter()
                .map(|(_, r)| r.get(0).unwrap().as_int().unwrap())
                .collect(),
        };
        let expected: Vec<i64> = (0..seqs.len() as i64).collect();
        prop_assert_eq!(
            &seqs, &expected,
            "seed {} cut {} {:?}: must be a commit prefix", seed, cut, durability
        );
        prop_assert!(seqs.len() as i64 <= n);
        if durability == DurabilityLevel::Fsync {
            prop_assert!(
                seqs.len() as i64 >= acked,
                "seed {} cut {} at Fsync: {} acked, only {} recovered",
                seed, cut, acked, seqs.len()
            );
        }
    }
}
