//! Experiment **A6** — sustained ingest under background maintenance.
//!
//! A fixed working set of rows is updated round-robin for N commits.
//! Without maintenance the WAL grows linearly with the commit count and
//! reopen replays all of it. With the background thread (auto-checkpoint
//! and auto-vacuum) the WAL and reopen time should stay flat even at 10×
//! the commits — and because a checkpoint holds the commit latch only to
//! switch the log to a new segment, and writes its base off it, commit
//! latency should barely notice the checkpoints happening underneath.
//!
//! Reported per run: commit-latency p50/p99/max, final WAL size, reopen
//! time, and how many background checkpoints/vacuums fired. Not a
//! criterion bench (each run wants a fresh on-disk database and
//! wall-clock control), so this is a plain `main`:
//!
//! ```text
//! cargo bench -p tendax-bench --bench maintenance
//! ```
//!
//! Pass `--test` for a quick smoke run and `--json <path>` to append one
//! JSON summary line (consumed by `scripts/bench_maintenance.sh`).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tendax_bench::stats::LatencyHistogram;
use tendax_storage::{
    DataType, Database, MaintenanceOptions, Options, Predicate, Row, TableDef, Value,
};

const TEXT_WIDTH: usize = 64;
const WORKING_SET: u64 = 1_000;

struct Config {
    commits: u64,
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
        commits: if quick { 1_000 } else { 20_000 },
        quick,
        json_path,
    }
}

/// Bytes of the log at `path`: its base and the segments beside it.
fn log_bytes(path: &Path) -> u64 {
    let name = path.file_name().expect("a file").to_string_lossy();
    let dir = std::fs::read_dir(path.parent().expect("a directory")).expect("read dir");
    (dir.flatten())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&*name))
        .map(|e| e.metadata().expect("file meta").len())
        .sum()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tendax-bench-maint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn maintenance_budgets(quick: bool) -> MaintenanceOptions {
    MaintenanceOptions {
        interval: Duration::from_millis(5),
        vacuum_pruneable: 5_000,
        checkpoint_wal_bytes: if quick { 256 << 10 } else { 1 << 20 },
        checkpoint_wal_records: u64::MAX, // byte budget drives it
        ..MaintenanceOptions::default()
    }
}

struct RunResult {
    label: &'static str,
    commits: u64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    wal_bytes: u64,
    reopen_ms: f64,
    checkpoints: u64,
    vacuums: u64,
}

/// Seed the working set, run `commits` round-robin updates timing each
/// commit, then drop the database and time a cold reopen.
fn run(label: &'static str, maintenance: Option<MaintenanceOptions>, commits: u64) -> RunResult {
    let path = tmp(&format!("{label}.wal"));
    let opts = Options {
        maintenance,
        ..Options::default()
    };
    let payload = "x".repeat(TEXT_WIDTH);
    let db = Database::open(&path, opts).expect("open");
    let t = db
        .create_table(
            TableDef::new("chars")
                .column("seq", DataType::Int)
                .column("text", DataType::Text),
        )
        .expect("create table");
    let mut rids = Vec::with_capacity(WORKING_SET as usize);
    let mut txn = db.begin();
    for _ in 0..WORKING_SET {
        rids.push(
            txn.insert(
                t,
                Row::new(vec![Value::Int(0), Value::Text(payload.clone())]),
            )
            .expect("seed"),
        );
    }
    txn.commit().expect("seed commit");

    let mut lat = LatencyHistogram::with_capacity(commits as usize);
    for i in 0..commits {
        let rid = rids[(i % WORKING_SET) as usize];
        let start = Instant::now();
        let mut txn = db.begin();
        txn.set(
            t,
            rid,
            &[
                ("seq", Value::Int(i as i64)),
                ("text", Value::Text(payload.clone())),
            ],
        )
        .expect("update");
        txn.commit().expect("commit");
        lat.record(start.elapsed());
    }
    let stats = db.stats();
    let checkpoints = stats.maintenance_checkpoints;
    let vacuums = stats.maintenance_vacuums;
    let summary = lat.summary().expect("commits recorded");
    let wal_bytes = log_bytes(&path);
    // Reopen timed below needs the db (and its maintenance thread)
    // gone first.
    drop(db);
    let start = Instant::now();
    let db = Database::open(&path, Options::default()).expect("reopen");
    let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
    let t = db.table_id("chars").expect("table survives");
    assert_eq!(
        db.begin().count(t, &Predicate::True).expect("count") as u64,
        WORKING_SET,
        "working set lost across reopen"
    );
    RunResult {
        label,
        commits,
        p50_us: summary.p50_us,
        p99_us: summary.p99_us,
        max_us: summary.max_us,
        wal_bytes,
        reopen_ms,
        checkpoints,
        vacuums,
    }
}

fn main() {
    let cfg = parse_args();
    let budgets = maintenance_budgets(cfg.quick);

    let runs = [
        run("baseline_off", None, cfg.commits),
        run("maint_1x", Some(budgets.clone()), cfg.commits),
        run("maint_10x", Some(budgets), cfg.commits * 10),
    ];

    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9} {:>6} {:>5}",
        "run", "commits", "p50 µs", "p99 µs", "max µs", "wal bytes", "reopen", "ckpts", "vacs"
    );
    for r in &runs {
        println!(
            "{:<14} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>12} {:>7.1}ms {:>6} {:>5}",
            r.label,
            r.commits,
            r.p50_us,
            r.p99_us,
            r.max_us,
            r.wal_bytes,
            r.reopen_ms,
            r.checkpoints,
            r.vacuums
        );
    }

    if let Some(path) = cfg.json_path {
        let mut fields: Vec<String> = vec![
            format!("\"commits\":{}", cfg.commits),
            format!("\"working_set\":{WORKING_SET}"),
            format!("\"quick\":{}", cfg.quick),
        ];
        for r in &runs {
            fields.push(format!("\"{}_p50_us\":{:.1}", r.label, r.p50_us));
            fields.push(format!("\"{}_p99_us\":{:.1}", r.label, r.p99_us));
            fields.push(format!("\"{}_max_us\":{:.1}", r.label, r.max_us));
            fields.push(format!("\"{}_wal_bytes\":{}", r.label, r.wal_bytes));
            fields.push(format!("\"{}_reopen_ms\":{:.2}", r.label, r.reopen_ms));
            fields.push(format!("\"{}_checkpoints\":{}", r.label, r.checkpoints));
            fields.push(format!("\"{}_vacuums\":{}", r.label, r.vacuums));
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
