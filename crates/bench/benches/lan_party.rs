//! Experiment **A10** — the "LAN party at scale" macro-benchmark.
//!
//! One seeded schedule (see `tendax_bench::lanparty`) is driven through
//! two stacks:
//!
//! * `inproc` — editor sessions on the in-process bus,
//! * `tcp`    — one `NetClient` per user against a loopback `NetServer`.
//!
//! Each mode reports aggregate throughput, per-op-class p50/p99/max
//! latency, storage retry amplification, and (TCP) the server's
//! counters plus the peak process thread count. The schedule digest in
//! every line is the reproducibility receipt: same seed ⇒ same digest
//! ⇒ same op stream.
//!
//! ```text
//! cargo bench -p tendax-bench --bench lan_party
//! ```
//!
//! Pass `--test` for a small smoke run, `--seed N` to pick a schedule,
//! and `--json <path>` to append one JSON line per mode (consumed by
//! `scripts/bench_lanparty.sh` and `scripts/bench_compare.py`). Set
//! `TENDAX_LANPARTY_DURABILITY=fsync` to run against a file-backed WAL
//! and emit its flush receipts (fsyncs, batches, records, flush wait)
//! in every line.

use std::path::PathBuf;

use tendax_bench::lanparty::{generate, run_in_process, run_tcp, RunReport, WorkloadConfig};
use tendax_bench::stats::{append_json_line, json_object, JsonValue};

struct Config {
    workload: WorkloadConfig,
    quick: bool,
    json_path: Option<String>,
}

fn parse_args() -> Config {
    let mut quick = false;
    let mut json_path = None;
    let mut seed = 42;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => quick = true,
            "--json" => json_path = args.next(),
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes a u64")
            }
            _ => {} // --bench, filters, ... accepted and ignored
        }
    }
    let workload = if quick {
        WorkloadConfig {
            users: 4,
            docs: 6,
            ops: 80,
            seed,
            ..WorkloadConfig::default()
        }
    } else {
        WorkloadConfig {
            users: 8,
            docs: 16,
            ops: 1_200,
            seed,
            ..WorkloadConfig::default()
        }
    };
    Config {
        workload,
        quick,
        json_path,
    }
}

fn print_report(r: &mut RunReport) {
    println!(
        "{:<11} {:>7} ops {:>9.0} ops/s  wall {:>7.1}ms  commits {:>6}  txns {:>6}  retries {:>4}{}",
        r.mode,
        r.ops,
        r.throughput_per_s(),
        r.wall.as_secs_f64() * 1e3,
        r.commits,
        r.txns_begun,
        r.collab_retries,
        match r.threads {
            Some(t) => format!("  peak threads {t}"),
            None => String::new(),
        }
    );
    for (class, s) in r.classes.summaries() {
        println!(
            "    {:<8} n={:<6} p50 {:>9.1}µs  p99 {:>9.1}µs  max {:>9.1}µs",
            class, s.count, s.p50_us, s.p99_us, s.max_us
        );
    }
    if let Some(net) = &r.net {
        println!(
            "    net: accepted {} forwarded {} dropped {} slow_disconnects {}",
            net.accepted, net.events_forwarded, net.frames_dropped, net.slow_disconnects
        );
    }
    if let Some(w) = &r.wal {
        println!(
            "    wal: fsyncs {} flush_wait {:.1}ms batches {} records {}",
            w.fsyncs,
            w.flush_wait_ns as f64 / 1e6,
            w.batches_flushed,
            w.records_flushed
        );
    }
}

fn json_line(cfg: &Config, r: &mut RunReport) -> String {
    let w = &cfg.workload;
    let mut pairs: Vec<(String, JsonValue)> = vec![
        ("bench".into(), JsonValue::Str("lan_party".into())),
        ("mode".into(), JsonValue::Str(r.mode.into())),
        ("quick".into(), JsonValue::Bool(cfg.quick)),
        ("seed".into(), JsonValue::U64(w.seed)),
        ("users".into(), JsonValue::U64(w.users as u64)),
        ("docs".into(), JsonValue::U64(w.docs as u64)),
        ("ops".into(), JsonValue::U64(r.ops)),
        (
            "schedule_digest".into(),
            JsonValue::Str(format!("{:016x}", r.schedule_digest)),
        ),
        (
            "doc_digest".into(),
            JsonValue::Str(format!("{:016x}", r.doc_digest)),
        ),
        (
            format!("{}_ops_per_s", r.mode),
            JsonValue::F64(r.throughput_per_s()),
        ),
        ("wall_ms".into(), JsonValue::F64(r.wall.as_secs_f64() * 1e3)),
        ("commits".into(), JsonValue::U64(r.commits)),
        ("txns_begun".into(), JsonValue::U64(r.txns_begun)),
        ("collab_retries".into(), JsonValue::U64(r.collab_retries)),
    ];
    for (k, v) in r.classes.json_pairs() {
        pairs.push((k, v));
    }
    if let Some(net) = &r.net {
        pairs.push(("net_accepted".into(), JsonValue::U64(net.accepted)));
        pairs.push((
            "net_events_forwarded".into(),
            JsonValue::U64(net.events_forwarded),
        ));
        pairs.push((
            "net_frames_dropped".into(),
            JsonValue::U64(net.frames_dropped),
        ));
        pairs.push((
            "net_slow_disconnects".into(),
            JsonValue::U64(net.slow_disconnects),
        ));
    }
    if let Some(t) = r.threads {
        pairs.push(("peak_threads".into(), JsonValue::U64(t)));
    }
    if let Some(w) = &r.wal {
        pairs.push(("wal_fsyncs".into(), JsonValue::U64(w.fsyncs)));
        pairs.push(("wal_batches".into(), JsonValue::U64(w.batches_flushed)));
        pairs.push(("wal_records".into(), JsonValue::U64(w.records_flushed)));
        pairs.push((
            "wal_flush_wait_ms".into(),
            JsonValue::F64(w.flush_wait_ns as f64 / 1e6),
        ));
    }
    json_object(&pairs)
}

fn main() {
    let cfg = parse_args();
    let w = &cfg.workload;
    println!(
        "lan_party: {} users x {} docs, {} ops, seed {}",
        w.users, w.docs, w.ops, w.seed
    );
    let schedule = generate(w);
    println!("schedule digest {:016x}", schedule.digest());

    let mut reports = vec![run_in_process(&schedule), run_tcp(&schedule)];

    for r in &mut reports {
        print_report(r);
    }

    if let Some(path) = &cfg.json_path {
        let path = PathBuf::from(path);
        for r in &mut reports {
            let line = json_line(&cfg, r);
            append_json_line(&path, &line).expect("append json line");
        }
        println!("appended {} lines to {}", reports.len(), path.display());
    }
}
