//! Experiment **N1** — TCP transport throughput over loopback.
//!
//! Measures the `tendax-net` stack end to end on a real socket pair:
//! handshake, length-prefixed framing, the multiplexing server, and the
//! client mirror. Three shapes:
//!
//! * **ping** — serial `Ping`/`Pong` round trips: protocol + scheduling
//!   floor, no database work;
//! * **edit** — serial 16-character inserts, each waiting for its
//!   `EditOk`: the full commit path plus the wire;
//! * **fanout** — one editor, 8 subscribers, a burst of edits: committed
//!   events broadcast through per-connection bounded queues, measured as
//!   events delivered per second across all subscribers once every
//!   mirror has converged on the final commit.
//!
//! `frames_per_write` is counted over the whole run: frames the server's
//! writers sent per socket write they made (1.0 when every frame has a
//! write of its own; higher when an `EditOk` and the typist's own echo,
//! or a burst of events, leave together).
//!
//! Not a criterion bench (real sockets, background threads, convergence
//! barriers), so a plain `main`:
//!
//! ```text
//! cargo bench -p tendax-bench --bench transport_echo
//! ```
//!
//! Pass `--test` for a quick smoke run and `--json <path>` to append one
//! JSON summary line (consumed by `scripts/bench_transport.sh`).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tendax_collab::CollabServer;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_text::TextDb;

const FANOUT_SUBSCRIBERS: usize = 8;

struct Config {
    pings: u64,
    edits: u64,
    fanout_edits: u64,
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
        pings: if quick { 200 } else { 2_000 },
        edits: if quick { 50 } else { 500 },
        fanout_edits: if quick { 50 } else { 400 },
        quick,
        json_path,
    }
}

fn serve(users: &[String], doc: &str) -> (NetServer, CollabServer) {
    let tdb = TextDb::in_memory();
    let mut creator = None;
    for u in users {
        let id = tdb.create_user(u).unwrap();
        creator.get_or_insert(id);
    }
    tdb.create_document(doc, creator.expect("at least one user"))
        .unwrap();
    let collab = CollabServer::new(tdb);
    let server = NetServer::bind("127.0.0.1:0", collab.clone(), NetConfig::default()).unwrap();
    (server, collab)
}

fn main() {
    let cfg = parse_args();
    let users: Vec<String> = (0..=FANOUT_SUBSCRIBERS)
        .map(|i| format!("user{i}"))
        .collect();
    let (server, _collab) = serve(&users, "bench");
    let addr = server.local_addr();

    // --- ping: protocol round-trip floor. ----------------------------
    let c = NetClient::connect(addr, "user0").unwrap();
    let start = Instant::now();
    for _ in 0..cfg.pings {
        c.ping().unwrap();
    }
    let ping_rtt_per_s = cfg.pings as f64 / start.elapsed().as_secs_f64();
    println!(
        "ping:   {:>10.0} round-trips/s ({} pings)",
        ping_rtt_per_s, cfg.pings
    );

    // --- edit: commit path + wire. -----------------------------------
    let doc = c.subscribe("bench").unwrap();
    let start = Instant::now();
    let mut last_ts = 0;
    for _ in 0..cfg.edits {
        let (_, ts) = c.insert(doc, 0, "sixteen chars !!").unwrap();
        last_ts = ts;
    }
    let edit_rtt_per_s = cfg.edits as f64 / start.elapsed().as_secs_f64();
    assert!(c.wait_synced(doc, last_ts, Duration::from_secs(60)));
    println!(
        "edit:   {:>10.0} round-trips/s ({} edits)",
        edit_rtt_per_s, cfg.edits
    );

    // --- fanout: broadcast through the bounded queues. ---------------
    let subs: Vec<NetClient> = (1..=FANOUT_SUBSCRIBERS)
        .map(|i| {
            let s = NetClient::connect(addr, &format!("user{i}")).unwrap();
            s.subscribe("bench").unwrap();
            s
        })
        .collect();
    let baseline: Vec<u64> = subs.iter().map(|s| s.events_seen()).collect();
    let start = Instant::now();
    let mut last_ts = 0;
    for _ in 0..cfg.fanout_edits {
        let (_, ts) = c.insert(doc, 0, "sixteen chars !!").unwrap();
        last_ts = ts;
    }
    for s in &subs {
        assert!(s.wait_synced(doc, last_ts, Duration::from_secs(60)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let delivered: u64 = subs
        .iter()
        .zip(&baseline)
        .map(|(s, b)| s.events_seen() - b)
        .sum();
    let fanout_events_per_s = delivered as f64 / elapsed;
    println!(
        "fanout: {:>10.0} events/s ({} edits x {} subscribers, {} delivered)",
        fanout_events_per_s, cfg.fanout_edits, FANOUT_SUBSCRIBERS, delivered
    );
    let stats = server.stats();
    let frames_per_write = stats.frames_written as f64 / stats.socket_writes.max(1) as f64;
    println!(
        "writes: {:>10.3} frames/write ({} frames in {} writes)",
        frames_per_write, stats.frames_written, stats.socket_writes
    );
    println!("server stats: {stats:?}");

    if let Some(path) = &cfg.json_path {
        let line = format!(
            concat!(
                "{{\"quick\":{},\"pings\":{},\"edits\":{},",
                "\"fanout_edits\":{},\"fanout_subscribers\":{},",
                "\"ping_rtt_per_s\":{:.0},\"edit_rtt_per_s\":{:.0},",
                "\"fanout_events_per_s\":{:.0},\"frames_per_write\":{:.3},",
                "\"frames_dropped\":{},\"slow_disconnects\":{}}}"
            ),
            cfg.quick,
            cfg.pings,
            cfg.edits,
            cfg.fanout_edits,
            FANOUT_SUBSCRIBERS,
            ping_rtt_per_s,
            edit_rtt_per_s,
            fanout_events_per_s,
            frames_per_write,
            stats.frames_dropped,
            stats.slow_disconnects,
        );
        let path = PathBuf::from(path);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
        writeln!(f, "{line}").unwrap();
    }
}
