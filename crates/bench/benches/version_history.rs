//! Version-history depth vs RAM residency: the tiered cold storage
//! benchmark.
//!
//! TeNDaX keeps every version of every character tuple, so a long-lived
//! document's history grows without bound. This bench drives one table
//! through deep update histories twice — once with the cold tier off
//! (everything stays in RAM) and once with it on (vacuum demotes history
//! into bloom-filtered runs) — and reports, per depth: the RAM-resident
//! version count and resident bytes on each side, plus read rates at
//! the head (RAM-served) and at the oldest snapshot (cold-run-served).
//! Not a criterion bench: each measurement wants a fixed warm corpus, so
//! this is a plain `main` that prints a table. Run with:
//!
//! ```text
//! cargo bench -p tendax-bench --bench version_history
//! ```
//!
//! Pass `--test` for a quick smoke run and `--json <path>` to append one
//! JSON summary line (throughput keys end in `_per_s` for
//! `scripts/bench_compare.py`).

use std::io::Write as _;
use std::time::Instant;

use tendax_storage::{
    ColdOptions, DataType, Database, Options, Row, RowId, TableDef, TableId, Ts, Value,
};

const TEXT_WIDTH: usize = 64;

struct Config {
    rows: u64,
    depths: Vec<u64>,
    budget: usize,
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
        rows: if quick { 64 } else { 512 },
        depths: if quick {
            vec![8, 32]
        } else {
            vec![8, 32, 128, 512]
        },
        budget: if quick { 256 } else { 2048 },
        quick,
        json_path,
    }
}

fn table_def() -> TableDef {
    TableDef::new("chars")
        .column("doc", DataType::Id)
        .column("text", DataType::Text)
        .index("chars_by_doc", &["doc"])
}

struct Corpus {
    db: Database,
    t: TableId,
    rids: Vec<RowId>,
    /// Commit ts of the first full round — the oldest history snapshot.
    oldest: Ts,
    build_secs: f64,
}

/// Build a corpus of `rows` rows carried through `depth` update rounds.
/// With `cold` set, vacuum runs whenever RAM exceeds the budget — the
/// maintenance thread's cold arm, driven synchronously for stable
/// numbers.
fn build(cfg: &Config, depth: u64, cold: Option<ColdOptions>, path: &std::path::Path) -> Corpus {
    let opts = Options {
        cold_storage: cold,
        ..Options::default()
    };
    let db = Database::open(path, opts).expect("open");
    let t = db.create_table(table_def()).expect("create table");
    let payload = "x".repeat(TEXT_WIDTH);
    let start = Instant::now();
    let mut rids = Vec::with_capacity(cfg.rows as usize);
    {
        let mut txn = db.begin();
        for i in 0..cfg.rows {
            rids.push(
                txn.insert(
                    t,
                    Row::new(vec![Value::Id(i % 8), Value::Text(payload.clone())]),
                )
                .expect("insert"),
            );
        }
        txn.commit().expect("commit");
    }
    let mut oldest = 0;
    for round in 0..depth {
        let mut txn = db.begin();
        for (i, &rid) in rids.iter().enumerate() {
            txn.update(
                t,
                rid,
                Row::new(vec![
                    Value::Id(i as u64 % 8),
                    Value::Text(format!("{payload}-r{round}")),
                ]),
            )
            .expect("update");
        }
        let ts = txn.commit().expect("commit");
        if round == 0 {
            oldest = ts;
        }
        if db.cold_storage_enabled() && db.ram_version_count() > cfg.budget {
            db.vacuum();
            // What the maintenance thread's compaction arm would do.
            db.cold_compact_if_needed().expect("compact");
        }
    }
    Corpus {
        db,
        t,
        rids,
        oldest,
        build_secs: start.elapsed().as_secs_f64(),
    }
}

/// Point-get rate (gets/sec) over every row at snapshot `ts` (None =
/// head).
fn get_rate(c: &Corpus, iters: u32, ts: Option<Ts>) -> f64 {
    let txn = match ts {
        Some(ts) => c.db.begin_at(ts).expect("begin_at"),
        None => c.db.begin(),
    };
    // Warmup.
    for &rid in &c.rids {
        assert!(txn.get(c.t, rid).expect("get").is_some());
    }
    let start = Instant::now();
    for _ in 0..iters {
        for &rid in &c.rids {
            assert!(txn.get(c.t, rid).expect("get").is_some());
        }
    }
    (iters as u64 * c.rids.len() as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Heap bytes of the RAM-resident versions of the corpus table, indexes
/// and chains included, as the table itself counts them.
fn ram_bytes(c: &Corpus) -> u64 {
    let stats = c.db.table_stats();
    let table = stats
        .iter()
        .find(|t| t.name == "chars")
        .expect("corpus table");
    table.resident_bytes.total()
}

fn main() {
    let cfg = parse_args();
    let iters: u32 = if cfg.quick { 2 } else { 10 };
    let dir = std::env::temp_dir().join(format!("tendax-vh-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");

    println!(
        "version_history: rows={} budget={} depths={:?} (quick={})",
        cfg.rows, cfg.budget, cfg.depths, cfg.quick
    );
    println!(
        "{:>6}  {:>12} {:>12}  {:>12} {:>12}  {:>10} {:>10} {:>10}",
        "depth", "ram-hot", "ram-cold", "bytes-hot", "bytes-cold", "head/s", "hist/s", "demoted"
    );

    let mut head_rate = 0.0;
    let mut hist_rate = 0.0;
    let mut hot_hist_rate = 0.0;
    let mut demoted = 0u64;
    let (mut ram_hot_last, mut ram_cold_last) = (0usize, 0usize);
    for &depth in &cfg.depths {
        let hot = build(&cfg, depth, None, &dir.join(format!("hot-{depth}.wal")));
        let cold = build(
            &cfg,
            depth,
            Some(ColdOptions {
                memtable_version_budget: cfg.budget,
                ..ColdOptions::default()
            }),
            &dir.join(format!("cold-{depth}.wal")),
        );
        let stats = cold.db.stats();
        let (ram_hot, ram_cold) = (hot.db.ram_version_count(), cold.db.ram_version_count());
        let (bytes_hot, bytes_cold) = (ram_bytes(&hot), ram_bytes(&cold));
        head_rate = get_rate(&cold, iters, None);
        hist_rate = get_rate(&cold, iters, Some(cold.oldest));
        hot_hist_rate = get_rate(&hot, iters, Some(hot.oldest));
        demoted = stats.cold_versions_demoted;
        ram_hot_last = ram_hot;
        ram_cold_last = ram_cold;
        println!(
            "{:>6}  {:>12} {:>12}  {:>12} {:>12}  {:>10.0} {:>10.0} {:>10}",
            depth, ram_hot, ram_cold, bytes_hot, bytes_cold, head_rate, hist_rate, demoted
        );
        let _ = hot.build_secs;
    }

    let _ = std::fs::remove_dir_all(&dir);

    if let Some(path) = cfg.json_path {
        let depth_max = cfg.depths.last().copied().unwrap_or(0);
        let line = format!(
            "{{\"rows\":{},\"depth_max\":{},\"budget\":{},\"quick\":{},\
             \"ram_versions_hot\":{},\"ram_versions_cold\":{},\
             \"cold_versions_demoted\":{},\
             \"head_get_per_s\":{:.1},\"cold_hist_get_per_s\":{:.1},\
             \"hot_hist_get_per_s\":{:.1}}}",
            cfg.rows,
            depth_max,
            cfg.budget,
            cfg.quick,
            ram_hot_last,
            ram_cold_last,
            demoted,
            head_rate,
            hist_rate,
            hot_hist_rate,
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open json output");
        writeln!(f, "{line}").expect("write json");
        println!("json appended to {path}");
    }
}
