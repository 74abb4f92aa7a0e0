//! Group-commit throughput: 1, 4 and 8 concurrent committers at
//! `Fsync`. (The flush-per-commit arm this used to compare against went
//! with the per-record WAL mode; its `base_*` numbers stay in
//! `bench_results/commit_throughput.json` as history.)
//!
//! Not a criterion bench: each measurement needs its own database, its
//! own thread pool, and wall-clock long enough to amortize thread
//! startup, so this is a plain `main` that prints a table. Run with:
//!
//! ```text
//! cargo bench -p tendax-bench --bench commit_throughput
//! ```
//!
//! Pass `--test` (as criterion benches accept) for a quick smoke run and
//! `--json <path>` to append one summary line (the `bench_results/`
//! convention). `wal_bytes_per_commit` is a count, not a timing: what one
//! single-row commit appends to the log.

use std::path::PathBuf;
use std::time::Instant;

use tendax_bench::stats::{append_json_line, json_object, JsonValue};
use tendax_storage::{DataType, Database, DurabilityLevel, Options, Row, TableDef, Value};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tendax-commit-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

struct Outcome {
    ops_per_sec: f64,
    mean_batch: f64,
    fsyncs_saved: u64,
    wal_bytes_per_commit: f64,
}

/// `threads` committers, each committing `ops` single-row inserts with
/// disjoint write-sets; returns aggregate throughput and batch shape.
fn run(name: &str, threads: u64, ops: i64) -> Outcome {
    let path = tmp(name);
    let db = Database::open(
        &path,
        Options {
            durability: DurabilityLevel::Fsync,
            ..Options::default()
        },
    )
    .expect("open");
    let t = db
        .create_table(
            TableDef::new("t")
                .column("writer", DataType::Id)
                .column("seq", DataType::Int),
        )
        .expect("table");

    let wal_before = db.wal_size().0;
    let start = Instant::now();
    let mut handles = Vec::new();
    for w in 0..threads {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..ops {
                let mut txn = db.begin();
                txn.insert(t, Row::new(vec![Value::Id(w), Value::Int(i)]))
                    .expect("insert");
                txn.commit().expect("commit");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = db.stats();
    let commits = (threads * ops as u64) as f64;
    Outcome {
        ops_per_sec: commits / elapsed,
        mean_batch: if stats.wal_batches_flushed == 0 {
            0.0
        } else {
            stats.wal_records_flushed as f64 / stats.wal_batches_flushed as f64
        },
        fsyncs_saved: stats.wal_fsyncs_saved,
        wal_bytes_per_commit: (db.wal_size().0 - wal_before) as f64 / commits,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");
    let json = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1));
    let ops: i64 = if quick { 5 } else { 200 };

    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>14}",
        "config", "commits/s", "mean batch", "fsyncs saved", "WAL B/commit"
    );
    let mut fields = vec![
        ("commits_per_thread".to_string(), JsonValue::U64(ops as u64)),
        ("quick".to_string(), JsonValue::Bool(quick)),
    ];
    for &threads in &[1u64, 4, 8] {
        let group = run(&format!("group-{threads}.wal"), threads, ops);
        println!(
            "{:<20} {:>12.0} {:>12.2} {:>12} {:>14.1}",
            format!("group commit x{threads}"),
            group.ops_per_sec,
            group.mean_batch,
            group.fsyncs_saved,
            group.wal_bytes_per_commit
        );
        fields.push((
            format!("group_{threads}_commits_per_s"),
            JsonValue::F64(group.ops_per_sec),
        ));
        if threads == 1 {
            // The single writer's figure; more writers reach higher
            // timestamps and sequence numbers, a varint byte more.
            fields.push((
                "wal_bytes_per_commit".to_string(),
                JsonValue::F64(group.wal_bytes_per_commit),
            ));
        }
    }
    if let Some(path) = json {
        append_json_line(std::path::Path::new(path), &json_object(&fields)).expect("append json");
        println!("appended summary to {path}");
    }
}
