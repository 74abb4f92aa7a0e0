//! Experiment **A7** — commit throughput scaling across threads.
//!
//! The sharded commit pipeline removes the global commit mutex: commits
//! to disjoint tables should scale with the thread count, while commits
//! contending on one table still serialize on that table's write lock.
//! This bench measures both shapes on in-memory databases (so the disk
//! does not flatten the comparison) for 1/2/4/8 threads:
//!
//! * **disjoint** — one table per thread, each thread updates its own
//!   row: the pipeline's shared mode, no common locks past the
//!   sequencer's short critical section;
//! * **contended** — one shared table, each thread updates its own row
//!   in it: every commit takes the same table write lock, the expected
//!   non-scaling control.
//!
//! Reported per (shape, threads): total txns/s, per-thread txns/s, and
//! the engine's own `commit_wait_ns` (time spent waiting to enter the
//! pipeline) and `watermark_lag_max` counters. Not a criterion bench
//! (thread orchestration and fresh databases per point), so a plain
//! `main`:
//!
//! ```text
//! cargo bench -p tendax-bench --bench commit_scaling
//! ```
//!
//! Pass `--test` for a quick smoke run and `--json <path>` to append one
//! JSON summary line (consumed by `scripts/bench_commit.sh`).

use std::io::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tendax_storage::{DataType, Database, Row, RowId, TableDef, TableId, Value};

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];

struct Config {
    commits_per_thread: u64,
    quick: bool,
    json_path: Option<String>,
}

fn parse_args() -> Config {
    let mut quick = false;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => quick = true,
            "--json" => json_path = args.next(),
            _ => {} // --bench, filters, ... accepted and ignored
        }
    }
    Config {
        commits_per_thread: if quick { 500 } else { 5_000 },
        quick,
        json_path,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Disjoint,
    Contended,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Disjoint => "disjoint",
            Shape::Contended => "contended",
        }
    }
}

struct Point {
    shape: Shape,
    threads: usize,
    txns_per_s: f64,
    commit_wait_ms: f64,
    watermark_lag_max: u64,
}

fn def(name: &str) -> TableDef {
    TableDef::new(name).column("seq", DataType::Int)
}

/// One measured point: open a fresh in-memory database, lay out the
/// tables/rows for the shape, then have every thread commit `commits`
/// single-row updates as fast as it can.
fn run_point(shape: Shape, threads: usize, commits: u64) -> Point {
    let db = Database::open_in_memory();

    // (table, row) each thread hammers.
    let targets: Vec<(TableId, RowId)> = match shape {
        Shape::Disjoint => (0..threads)
            .map(|k| {
                let t = db.create_table(def(&format!("t{k}"))).expect("ddl");
                let mut txn = db.begin();
                let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).expect("seed");
                txn.commit().expect("seed commit");
                (t, rid)
            })
            .collect(),
        Shape::Contended => {
            let t = db.create_table(def("shared")).expect("ddl");
            let mut txn = db.begin();
            let rids: Vec<RowId> = (0..threads)
                .map(|_| txn.insert(t, Row::new(vec![Value::Int(0)])).expect("seed"))
                .collect();
            txn.commit().expect("seed commit");
            rids.into_iter().map(|rid| (t, rid)).collect()
        }
    };

    let wait_before = db.stats().commit_wait_ns;
    let start = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = targets
        .into_iter()
        .map(|(t, rid)| {
            let db = db.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for i in 1..=commits {
                    let mut txn = db.begin();
                    txn.set(t, rid, &[("seq", Value::Int(i as i64))])
                        .expect("update");
                    txn.commit().expect("commit");
                }
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = db.stats();
    Point {
        shape,
        threads,
        txns_per_s: (threads as u64 * commits) as f64 / elapsed,
        commit_wait_ms: (stats.commit_wait_ns - wait_before) as f64 / 1e6,
        watermark_lag_max: stats.watermark_lag_max,
    }
}

fn main() {
    let cfg = parse_args();

    let mut points = Vec::new();
    for shape in [Shape::Disjoint, Shape::Contended] {
        for &threads in &THREAD_POINTS {
            points.push(run_point(shape, threads, cfg.commits_per_thread));
        }
    }

    println!(
        "{:<10} {:>7} {:>12} {:>10} {:>14} {:>8}",
        "shape", "threads", "txns/s", "scale", "commit wait ms", "lag max"
    );
    for p in &points {
        let base = points
            .iter()
            .find(|q| q.shape == p.shape && q.threads == 1)
            .map(|q| q.txns_per_s)
            .unwrap_or(p.txns_per_s);
        println!(
            "{:<10} {:>7} {:>12.0} {:>9.2}x {:>14.1} {:>8}",
            p.shape.label(),
            p.threads,
            p.txns_per_s,
            p.txns_per_s / base,
            p.commit_wait_ms,
            p.watermark_lag_max
        );
    }

    if let Some(path) = cfg.json_path {
        let mut fields: Vec<String> = vec![
            format!("\"commits_per_thread\":{}", cfg.commits_per_thread),
            format!("\"quick\":{}", cfg.quick),
            format!(
                "\"cores\":{}",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            ),
        ];
        for p in &points {
            let key = format!("{}_{}", p.shape.label(), p.threads);
            fields.push(format!("\"{key}_txns_per_s\":{:.0}", p.txns_per_s));
            fields.push(format!("\"{key}_commit_wait_ms\":{:.1}", p.commit_wait_ms));
            fields.push(format!(
                "\"{key}_watermark_lag_max\":{}",
                p.watermark_lag_max
            ));
        }
        let line = format!("{{{}}}\n", fields.join(","));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open json output");
        f.write_all(line.as_bytes()).expect("write json");
        println!("appended summary to {path}");
    }
}
