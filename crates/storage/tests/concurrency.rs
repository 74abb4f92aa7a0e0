//! Concurrency stress tests: writers racing checkpoints, vacuum, and
//! each other across real threads. These validate the lock protocol
//! (commit latch, table locks, WAL mutex) rather than any single
//! feature; `tests/commit_pipeline.rs` covers the sharded-pipeline
//! invariants specifically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tendax_storage::{DataType, Database, Options, Predicate, Row, TableDef, Value};

fn counter_table() -> TableDef {
    TableDef::new("t")
        .column("writer", DataType::Id)
        .column("seq", DataType::Int)
        .index("by_writer", &["writer"])
}

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-conc");
    let p = dir.file(name);
    (dir, p)
}

#[test]
fn writers_race_checkpoints_without_loss() {
    let (_dir, path) = tmp("writers-checkpoint.wal");
    let db = Database::open(&path, Options::default()).unwrap();
    let t = db.create_table(counter_table()).unwrap();

    const WRITERS: u64 = 4;
    const OPS: i64 = 50;
    let stop = Arc::new(AtomicBool::new(false));

    let checkpointer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            // At least one checkpoint, however late the thread is
            // scheduled: the writers may all be done before it starts.
            let mut n = 0;
            loop {
                db.checkpoint().unwrap();
                n += 1;
                if stop.load(Ordering::Relaxed) {
                    break n;
                }
                std::thread::yield_now();
            }
        })
    };
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        writers.push(std::thread::spawn(move || {
            for i in 0..OPS {
                let mut txn = db.begin();
                txn.insert(t, Row::new(vec![Value::Id(w), Value::Int(i)]))
                    .unwrap();
                txn.commit().unwrap();
            }
        }));
    }
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checkpoints = checkpointer.join().unwrap();
    assert!(checkpoints > 0, "checkpointer never ran");
    drop(db);

    // Everything committed must survive reopen, in order per writer.
    let db = Database::open(&path, Options::default()).unwrap();
    let t = db.table_id("t").unwrap();
    let reader = db.begin();
    for w in 0..WRITERS {
        let rows = reader
            .scan(t, &Predicate::Eq("writer".into(), Value::Id(w)))
            .unwrap();
        let mut seqs: Vec<i64> = rows
            .iter()
            .map(|(_, r)| r.get(1).unwrap().as_int().unwrap())
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..OPS).collect::<Vec<_>>(), "writer {w} lost rows");
    }
}

#[test]
fn vacuum_races_updates_without_corrupting_reads() {
    let db = Database::open_in_memory();
    let t = db.create_table(counter_table()).unwrap();
    let mut setup = db.begin();
    let rows: Vec<_> = (0..16u64)
        .map(|w| {
            setup
                .insert(t, Row::new(vec![Value::Id(w), Value::Int(0)]))
                .unwrap()
        })
        .collect();
    setup.commit().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let vacuumer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.vacuum();
                std::thread::yield_now();
            }
        })
    };
    let mut updaters = Vec::new();
    for (w, rid) in rows.iter().enumerate() {
        let db = db.clone();
        let rid = *rid;
        updaters.push(std::thread::spawn(move || {
            for i in 1..=40i64 {
                let mut txn = db.begin();
                txn.set(t, rid, &[("seq", Value::Int(i))]).unwrap();
                txn.commit().unwrap();
                // Reads in between must always see a consistent value.
                let snapshot = db.begin();
                let row = snapshot.get(t, rid).unwrap().unwrap();
                let v = row.get(1).unwrap().as_int().unwrap();
                assert!(v >= i || v <= 40, "impossible value {v}");
                assert_eq!(row.get(0).unwrap().as_id(), Some(w as u64));
            }
        }));
    }
    for h in updaters {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    vacuumer.join().unwrap();

    let reader = db.begin();
    for rid in rows {
        let row = reader.get(t, rid).unwrap().unwrap();
        assert_eq!(row.get(1).unwrap().as_int(), Some(40));
    }
}

#[test]
fn conflicting_writers_serialize_to_exactly_one_winner_per_round() {
    let db = Database::open_in_memory();
    let t = db.create_table(counter_table()).unwrap();
    let mut setup = db.begin();
    let rid = setup
        .insert(t, Row::new(vec![Value::Id(0), Value::Int(0)]))
        .unwrap();
    setup.commit().unwrap();

    // N threads all increment the same row optimistically with retries:
    // the final value must equal the number of successful increments.
    const THREADS: usize = 4;
    const INCREMENTS: i64 = 25;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..INCREMENTS {
                loop {
                    let mut txn = db.begin();
                    let cur = txn
                        .get(t, rid)
                        .unwrap()
                        .unwrap()
                        .get(1)
                        .unwrap()
                        .as_int()
                        .unwrap();
                    txn.set(t, rid, &[("seq", Value::Int(cur + 1))]).unwrap();
                    if txn.commit().is_ok() {
                        break;
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let reader = db.begin();
    let v = reader.get(t, rid).unwrap().unwrap();
    assert_eq!(
        v.get(1).unwrap().as_int(),
        Some((THREADS as i64) * INCREMENTS),
        "lost increments under contention"
    );
    // Conflicts are timing-dependent; what matters is that every commit
    // that succeeded did so against a fresh snapshot (checked above).
}
