//! Read-path throughput: full scans, filtered scans, point gets and
//! index lookups over wide rows, plus readers racing concurrent writers.
//!
//! This is the workload shape behind every live TeNDaX metadata feature
//! (dynamic folders, lineage, mining, search): scan- and index-read-heavy
//! over per-character tuples. Not a criterion bench: each measurement
//! wants a warm database of fixed size and wall-clock long enough to be
//! stable, so this is a plain `main` that prints a table. Run with:
//!
//! ```text
//! cargo bench -p tendax-bench --bench read_path
//! ```
//!
//! Pass `--test` (as criterion benches accept) for a quick smoke run, and
//! `--json <path>` to append one JSON summary line (consumed by
//! `scripts/bench_read.sh`), `--note <text>` to label that line.
//!
//! The `doc_open/*` rows run the whole read path of one document —
//! index walk, row decode, chain build — through `TextDb::open`, over
//! chains of 4 k and 24 k characters half of which are tombstones, and
//! report characters opened per second.
//!
//! The `scan/deepclone` row deliberately deep-copies every returned row
//! into an owned `Row`, emulating the pre-zero-copy read path; comparing
//! it with `scan/full` A/Bs row sharing within a single binary.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tendax_storage::{DataType, Database, Predicate, Row, TableDef, TableId, Value};
use tendax_text::TextDb;

const TEXT_WIDTH: usize = 64;

struct Config {
    rows: u64,
    docs: u64,
    quick: bool,
    json_path: Option<String>,
    /// Free text recorded with the JSON line (which commit, why).
    note: Option<String>,
}

fn parse_args() -> Config {
    let mut quick = false;
    let mut json_path = None;
    let mut note = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => quick = true,
            "--json" => json_path = args.next(),
            "--note" => note = args.next(),
            _ => {} // --bench, filters, ... accepted and ignored
        }
    }
    let rows = if quick { 5_000 } else { 100_000 };
    Config {
        rows,
        docs: 50,
        quick,
        json_path,
        note,
    }
}

/// Build the corpus: `rows` wide rows (64-byte text column, chars-table
/// shape) spread over `docs` documents, committed in batches.
fn setup(cfg: &Config) -> (Database, TableId) {
    let db = Database::open_in_memory();
    let t = db
        .create_table(
            TableDef::new("wide")
                .column("doc", DataType::Id)
                .column("seq", DataType::Int)
                .column("text", DataType::Text)
                .column("author", DataType::Id)
                .column("ts", DataType::Timestamp)
                .index("wide_by_doc", &["doc"]),
        )
        .expect("create table");
    let payload = "x".repeat(TEXT_WIDTH);
    let mut i = 0u64;
    while i < cfg.rows {
        let mut txn = db.begin();
        for _ in 0..1_000.min(cfg.rows - i) {
            txn.insert(
                t,
                Row::new(vec![
                    Value::Id(i % cfg.docs),
                    Value::Int(i as i64),
                    Value::Text(payload.clone()),
                    Value::Id(i % 7),
                    Value::Timestamp(i as i64),
                ]),
            )
            .expect("insert");
            i += 1;
        }
        txn.commit().expect("commit");
    }
    (db, t)
}

/// Time `f` over `iters` iterations; returns (rows/sec, checksum).
fn measure(iters: u32, rows_per_iter: u64, mut f: impl FnMut() -> u64) -> (f64, u64) {
    // One warmup iteration.
    let mut check = f();
    let start = Instant::now();
    for _ in 0..iters {
        check = check.wrapping_add(f());
    }
    let secs = start.elapsed().as_secs_f64();
    ((iters as u64 * rows_per_iter) as f64 / secs, check)
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:8.2} M/s", r / 1e6)
    } else {
        format!("{:8.1} k/s", r / 1e3)
    }
}

fn main() {
    let cfg = parse_args();
    let iters: u32 = if cfg.quick { 1 } else { 20 };
    let (db, t) = setup(&cfg);
    let mut results: Vec<(&str, f64)> = Vec::new();

    // Cold scan: fresh transaction per iteration, full table, no filter.
    let (rate, check) = measure(iters, cfg.rows, || {
        let txn = db.begin();
        let rows = txn.scan(t, &Predicate::True).expect("scan");
        let mut sum = 0u64;
        for (_, r) in &rows {
            sum += r
                .get(2)
                .and_then(|v| v.as_text())
                .map_or(0, |s| s.len() as u64);
        }
        assert_eq!(rows.len() as u64, cfg.rows);
        sum
    });
    println!("scan/full        {} (checksum {check})", fmt_rate(rate));
    results.push(("scan_full", rate));

    // Deep-clone scan: same scan, but every returned row is copied into
    // an owned Row — the cost model of the pre-zero-copy read path.
    let (rate, check) = measure(iters, cfg.rows, || {
        let txn = db.begin();
        let rows = txn.scan(t, &Predicate::True).expect("scan");
        let mut sum = 0u64;
        for (_, r) in &rows {
            let owned: Row = r.to_row();
            sum += owned
                .get(2)
                .and_then(|v| v.as_text())
                .map_or(0, |s| s.len() as u64);
        }
        sum
    });
    println!("scan/deepclone   {} (checksum {check})", fmt_rate(rate));
    results.push(("scan_deepclone", rate));

    // Hot scan: one transaction reused across iterations (warm handles).
    {
        let txn = db.begin();
        let (rate, _) = measure(iters, cfg.rows, || {
            let rows = txn.scan(t, &Predicate::True).expect("scan");
            rows.len() as u64
        });
        println!("scan/hot         {}", fmt_rate(rate));
        results.push(("scan_hot", rate));
    }

    // Filtered scan: predicate keeps ~1/7 of rows; pushdown means the
    // other 6/7 are skipped without materialization.
    let (rate, _) = measure(iters, cfg.rows, || {
        let txn = db.begin();
        let rows = txn
            .scan(t, &Predicate::Eq("author".into(), Value::Id(3)))
            .expect("scan");
        rows.len() as u64
    });
    println!("scan/filtered    {} (scanned rows/s)", fmt_rate(rate));
    results.push(("scan_filtered", rate));

    // Point gets: the ops.rs character-chain hot loop — many gets against
    // the same table inside one transaction.
    {
        let gets: u64 = if cfg.quick { 5_000 } else { 200_000 };
        let txn = db.begin();
        let all = txn.scan(t, &Predicate::True).expect("scan");
        let ids: Vec<_> = all.iter().map(|(rid, _)| *rid).collect();
        let (rate, _) = measure(iters, gets, || {
            let mut hits = 0u64;
            for i in 0..gets {
                let rid = ids[(i.wrapping_mul(2654435761) % ids.len() as u64) as usize];
                if txn.get(t, rid).expect("get").is_some() {
                    hits += 1;
                }
            }
            hits
        });
        println!("get/hot          {}", fmt_rate(rate));
        results.push(("point_get_hot", rate));
    }

    // Index lookups: per-document prefix reads (dynamic-folder shape).
    {
        let per_doc = cfg.rows / cfg.docs;
        let txn = db.begin();
        let (rate, _) = measure(iters, cfg.rows, || {
            let mut n = 0u64;
            for d in 0..cfg.docs {
                n += txn
                    .index_lookup(t, "wide_by_doc", &[Value::Id(d)])
                    .expect("lookup")
                    .len() as u64;
            }
            assert_eq!(n, per_doc * cfg.docs);
            n
        });
        println!("index/lookup     {} (rows via index/s)", fmt_rate(rate));
        results.push(("index_lookup", rate));
    }

    // Document open: what every editor, folder, search and mining sweep
    // pays per document. Half of each chain is tombstones.
    for (label, key, chars) in [
        ("doc_open/4k ", "doc_open_4k", 4_000u64),
        ("doc_open/24k", "doc_open_24k", 24_000),
    ] {
        let chars = if cfg.quick { chars / 10 } else { chars };
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("u").expect("user");
        let doc = tdb.create_document("d", user).expect("document");
        let mut h = tdb.open(doc, user).expect("open");
        for _ in 0..chars / 200 {
            h.insert_text(0, &"ab".repeat(100)).expect("insert");
            h.delete_range(50, 100).expect("delete");
        }
        assert_eq!((h.chain_len() as u64, h.len() as u64), (chars, chars / 2));
        let (rate, _) = measure(iters * 5, chars, || {
            tdb.open(doc, user).expect("open").chain_len() as u64
        });
        println!("{label}     {} (chars opened/s)", fmt_rate(rate));
        results.push((key, rate));
    }

    // Concurrent: R readers full-scanning while W writers commit updates.
    // Reports aggregate reader throughput; every scan must observe a
    // consistent prefix (row count never shrinks below the seeded corpus).
    let threads_cases: &[(u64, u64)] = if cfg.quick {
        &[(2, 1)]
    } else {
        &[(4, 1), (8, 2)]
    };
    for &(readers, writers) in threads_cases {
        let stop = Arc::new(AtomicBool::new(false));
        let scanned = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for w in 0..writers {
            let db = db.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = db.begin();
                    txn.insert(
                        t,
                        Row::new(vec![
                            Value::Id(1_000 + w),
                            Value::Int(i as i64),
                            Value::Text("y".repeat(TEXT_WIDTH)),
                            Value::Id(w),
                            Value::Timestamp(i as i64),
                        ]),
                    )
                    .expect("insert");
                    txn.commit().expect("commit");
                    i += 1;
                }
            }));
        }
        let start = Instant::now();
        let mut readers_h = Vec::new();
        let rounds: u64 = if cfg.quick { 2 } else { 10 };
        for _ in 0..readers {
            let db = db.clone();
            let scanned = scanned.clone();
            let base = cfg.rows;
            readers_h.push(std::thread::spawn(move || {
                for _ in 0..rounds {
                    let txn = db.begin();
                    let rows = txn.scan(t, &Predicate::True).expect("scan");
                    assert!(rows.len() as u64 >= base, "scan saw a torn prefix");
                    scanned.fetch_add(rows.len() as u64, Ordering::Relaxed);
                }
            }));
        }
        for h in readers_h {
            h.join().expect("reader");
        }
        let secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("writer");
        }
        let rate = scanned.load(Ordering::Relaxed) as f64 / secs;
        println!(
            "concurrent/r{readers}w{writers}  {} (reader rows/s)",
            fmt_rate(rate)
        );
        results.push(match (readers, writers) {
            (2, 1) => ("concurrent_r2w1", rate),
            (4, 1) => ("concurrent_r4w1", rate),
            _ => ("concurrent_r8w2", rate),
        });
    }

    let stats = db.stats();
    println!(
        "stats: commits={} last_commit_ts={}",
        stats.commits, stats.last_commit_ts
    );

    if let Some(path) = cfg.json_path {
        let mut fields: Vec<String> = vec![
            format!("\"rows\":{}", cfg.rows),
            format!("\"text_width\":{TEXT_WIDTH}"),
            format!("\"quick\":{}", cfg.quick),
        ];
        if let Some(note) = &cfg.note {
            fields.push(format!("\"note\":{note:?}"));
        }
        for (k, v) in &results {
            fields.push(format!("\"{k}\":{v:.1}"));
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
