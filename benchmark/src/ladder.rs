//! The layer ladder: the same edits issued at four depths.
//!
//! Each rung builds the workload's corpus afresh and replays the first
//! edits of the workload's schedule through one public entry point:
//!
//! 0. `storage` — a raw `Database` transaction writing as many rows as a
//!    keystroke does;
//! 1. `text` — `DocHandle::insert_text` / `delete_range`;
//! 2. `collab` — `EditorDoc::type_text` / `delete`, then the peer's
//!    `sync()` on the in-process bus;
//! 3. `net` — `NetClient::insert` / `delete`, then the peer's
//!    `wait_synced`.
//!
//! A layer's self time is its rung minus the rung below. Beside the
//! ladder sit the probes no replay can give from outside: ping, codec,
//! bytes on the wire through a counting proxy, and the crash check on
//! the simulated disk.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use tendax_core::{DurabilityLevel, Platform, SearchEngine};
use tendax_net::{EditOp, Frame, FrameBuffer, NetClient, NetConfig, NetServer};
use tendax_storage::{DataType, Database, Row, SimVfs, TableDef, Value, Vfs};

use crate::agg::percentile;
use crate::calib::{factor, Calib, PER_ROUND};
use crate::fixture::{self, build_corpus, build_tcp, now_ns, user_name, CorpusCfg};
use crate::record::RunRecord;
use crate::schedule::{Edit, Model, Paste};
use crate::services;
use crate::tcp::{self, VISIBLE_LIMIT};

/// Edits each rung replays.
const RUNG_EDITS: usize = 4_000;
/// The crash check's segment of the `typing_durable` schedule.
const CRASH_EDITS: usize = 2_000;

pub type Values = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone)]
enum Step {
    Edit(Edit),
    Paste(Paste),
    /// The watcher closes and re-opens a document: untimed at every
    /// rung, but replayed, because a fresh editor is cheaper to edit
    /// through than one that has aged over thousands of edits.
    Reopen(u16),
    /// The workload's periodic `vacuum()` (if it has one) and
    /// `checkpoint()`.
    Maintain {
        vacuum: bool,
    },
}

struct Plan {
    cfg: CorpusCfg,
    /// The schedule's warm-up rounds, replayed untimed so that the timed
    /// steps meet the documents in the state the measured phase found
    /// them in, then the first [`RUNG_EDITS`] measured edits.
    steps: Vec<Step>,
    untimed: usize,
    over_tcp: bool,
}

/// Flatten rounds into steps until [`RUNG_EDITS`] measured edits are in.
/// Each round is its edits, then whatever else of it changes the state
/// the next edits meet.
fn plan_steps(
    rounds: impl Iterator<Item = (Vec<Edit>, Vec<Step>)>,
    warm: usize,
) -> (Vec<Step>, usize) {
    let mut steps = Vec::new();
    let (mut untimed, mut timed_edits) = (0, 0);
    for (r, (edits, rest)) in rounds.enumerate() {
        if timed_edits >= RUNG_EDITS {
            break;
        }
        if r >= warm {
            timed_edits += edits.len();
        }
        steps.extend(edits.into_iter().map(Step::Edit));
        steps.extend(rest);
        if r < warm {
            untimed = steps.len();
        }
    }
    (steps, untimed)
}

fn plan(workload: &str, seed: u64, seconds: u64) -> Plan {
    match tcp::by_name(workload) {
        Some(w) => {
            let (rounds, warm) = w.schedule(seed, seconds);
            let rounds = rounds.into_iter().enumerate().map(|(r, round)| {
                let mut rest = vec![Step::Reopen(round.open_doc)];
                if w.maintain_every > 0 && (r + 1) % w.maintain_every == 0 {
                    rest.push(Step::Maintain { vacuum: w.vacuum });
                }
                (round.edits, rest)
            });
            let (steps, untimed) = plan_steps(rounds, warm);
            Plan {
                cfg: w.corpus,
                steps,
                untimed,
                over_tcp: true,
            }
        }
        None => {
            let (rounds, warm) = services::schedule(seed, seconds);
            let rounds = rounds
                .into_iter()
                .map(|r| (r.edits, vec![Step::Paste(r.paste)]));
            let (steps, untimed) = plan_steps(rounds, warm);
            Plan {
                cfg: services::corpus_cfg(),
                steps,
                untimed,
                over_tcp: false,
            }
        }
    }
}

fn maintain(db: &Database, vacuum: bool) {
    if vacuum {
        db.vacuum();
    }
    db.checkpoint().expect("ladder checkpoint");
}

fn p50_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        percentile(ns, 0.5) / 1e3
    }
}

/// Calibration beside a rung: a sample every [`CALIB_EVERY`] steps, and
/// at the end the rung's timings divided by the factor they give.
struct RungCalib {
    calib: Calib,
    mem: Vec<u64>,
    net: Vec<u64>,
    steps: usize,
}

const CALIB_EVERY: usize = 64;

impl RungCalib {
    fn new() -> RungCalib {
        RungCalib {
            calib: Calib::new(),
            mem: Vec::new(),
            net: Vec::new(),
            steps: 0,
        }
    }

    fn step(&mut self) {
        if self.steps.is_multiple_of(CALIB_EVERY) {
            self.sample();
        }
        self.steps += 1;
    }

    fn sample(&mut self) {
        let (mem, net) = self.calib.sample();
        self.mem.push(mem);
        self.net.push(net);
    }

    fn scale(&self, series: &mut [&mut Vec<u64>]) {
        let f = factor(&self.mem, &self.net, &PER_ROUND);
        for s in series {
            for ns in s.iter_mut() {
                *ns = (*ns as f64 / f) as u64;
            }
        }
    }
}

fn total_versions(db: &Database) -> u64 {
    db.table_stats().iter().map(|t| t.versions as u64).sum()
}

/// Row versions written by edits alone, over the first
/// [`RowMeter::STRETCHES`] runs of consecutive edits: the meter is paused
/// around every other step. It is never read around a single edit, and
/// only for a few stretches, because `table_stats` walks every table and
/// leaves the next edits a cold cache.
#[derive(Default)]
struct RowMeter {
    mark: Option<u64>,
    stretches: usize,
    rows: u64,
    edits: u64,
    chars: u64,
}

impl RowMeter {
    const STRETCHES: usize = 10;

    fn start(&mut self, db: &Database) {
        self.mark = Some(total_versions(db));
    }

    fn pause(&mut self, db: &Database) {
        if let Some(mark) = self.mark.take() {
            self.rows += total_versions(db) - mark;
            self.stretches += 1;
        }
    }

    fn resume(&mut self, db: &Database) {
        if self.stretches > 0 && self.stretches < Self::STRETCHES {
            self.start(db);
        }
    }

    fn edit(&mut self, e: &Edit) {
        if self.mark.is_some() {
            self.edits += 1;
            self.chars += e.del.max(e.text.len() as u32) as u64;
        }
    }
}

// ------------------------------------------------------------ rung 1: text

struct TextRung {
    insert_ns: Vec<u64>,
    delete_ns: Vec<u64>,
    all_ns: Vec<u64>,
    rows_per_edit: f64,
    rows_per_char: f64,
    open_ns: Vec<u64>,
    render_ns: Vec<u64>,
    copy_ns: Vec<u64>,
    paste_ns: Vec<u64>,
}

fn text_rung(plan: &Plan, seed: u64) -> TextRung {
    let dir = fixture::scratch_dir("ladder-text");
    let corpus = build_corpus(&plan.cfg, seed, &dir.join("tendax.wal"), None);
    let tdb = corpus.tx.textdb();
    let db = tdb.database();
    let mut handles: Vec<_> = corpus
        .docs
        .iter()
        .map(|&d| tdb.open(d, corpus.users[0]).expect("open a handle"))
        .collect();
    let mut out = TextRung {
        insert_ns: Vec::new(),
        delete_ns: Vec::new(),
        all_ns: Vec::new(),
        rows_per_edit: 0.0,
        rows_per_char: 0.0,
        open_ns: Vec::new(),
        render_ns: Vec::new(),
        copy_ns: Vec::new(),
        paste_ns: Vec::new(),
    };
    let mut rows = RowMeter::default();
    let mut cal = RungCalib::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let timed = i >= plan.untimed;
        if i == plan.untimed {
            rows.start(db);
        }
        if timed {
            cal.step();
        }
        let Step::Edit(e) = step else {
            rows.pause(db);
            match step {
                Step::Paste(p) => {
                    let clip = handles[p.src_doc as usize]
                        .copy(p.src_pos as usize, p.len as usize)
                        .expect("ladder copy");
                    handles[p.dst_doc as usize]
                        .paste(p.dst_pos as usize, &clip)
                        .expect("ladder paste");
                }
                Step::Reopen(d) => {
                    handles[*d as usize] = tdb
                        .open(corpus.docs[*d as usize], corpus.users[0])
                        .expect("ladder re-open");
                }
                Step::Maintain { vacuum } => maintain(db, *vacuum),
                Step::Edit(_) => unreachable!("handled above"),
            }
            rows.resume(db);
            continue;
        };
        let h = &mut handles[e.doc as usize];
        let t0 = now_ns();
        let done = if e.del > 0 {
            h.delete_range(e.pos as usize, e.del as usize)
        } else {
            h.insert_text(e.pos as usize, &e.text)
        };
        let ns = now_ns() - t0;
        done.expect("ladder edit at the text layer");
        if !timed {
            continue;
        }
        rows.edit(e);
        out.all_ns.push(ns);
        if e.del > 0 {
            out.delete_ns.push(ns);
        } else {
            out.insert_ns.push(ns);
        }
    }
    rows.pause(db);
    out.rows_per_edit = rows.rows as f64 / rows.edits.max(1) as f64;
    out.rows_per_char = rows.rows as f64 / rows.chars.max(1) as f64;

    // Open, render, copy and paste on the document the edits favoured.
    for i in 0..40 {
        cal.sample();
        let t0 = now_ns();
        let h = tdb.open(corpus.docs[0], corpus.users[0]).expect("open");
        let t1 = now_ns();
        let text = h.text();
        let t2 = now_ns();
        out.open_ns.push(t1 - t0);
        out.render_ns.push(t2 - t1);
        std::hint::black_box(text);
        let t0 = now_ns();
        let clip = handles[0].copy(i, 12).expect("copy");
        let t1 = now_ns();
        handles[1].paste(i, &clip).expect("paste");
        let t2 = now_ns();
        out.copy_ns.push(t1 - t0);
        out.paste_ns.push(t2 - t1);
    }
    cal.scale(&mut [
        &mut out.insert_ns,
        &mut out.delete_ns,
        &mut out.all_ns,
        &mut out.open_ns,
        &mut out.render_ns,
        &mut out.copy_ns,
        &mut out.paste_ns,
    ]);
    out
}

// --------------------------------------------------------- rung 0: storage

/// Transactions on a scratch table shaped like the character table,
/// each writing as many rows as one keystroke was seen to write.
fn storage_rung(plan: &Plan, seed: u64, rows_per_edit: f64) -> Vec<u64> {
    let dir = fixture::scratch_dir("ladder-storage");
    let corpus = build_corpus(&plan.cfg, seed, &dir.join("tendax.wal"), None);
    let db = corpus.tx.textdb().database();
    let table = db
        .create_table(
            TableDef::new("bench_raw")
                .column("doc", DataType::Id)
                .column("ch", DataType::Text)
                .column("prev", DataType::Id)
                .column("next", DataType::Id)
                .column("author", DataType::Id)
                .column("created_at", DataType::Timestamp)
                .column("version", DataType::Int)
                .column("deleted", DataType::Bool)
                .column("style", DataType::Id)
                .column("src_doc", DataType::Id)
                .column("src_char", DataType::Id)
                .index("bench_raw_by_doc", &["doc"]),
        )
        .expect("create the scratch table");
    let row = |i: u64| {
        Row::new(vec![
            Value::Id(1 + i % 8),
            Value::Text("x".into()),
            Value::Id(i),
            Value::Id(i + 2),
            Value::Id(1),
            Value::Timestamp(i as i64),
            Value::Int(1),
            Value::Bool(false),
            Value::Id(0),
            Value::Id(0),
            Value::Id(0),
        ])
    };
    let mut seeded = db.begin();
    let mut known: Vec<_> = (0..4)
        .map(|i| seeded.insert(table, row(i)).expect("seed row"))
        .collect();
    seeded.commit().expect("seed commit");

    let rows = rows_per_edit.round().max(1.0) as usize;
    let updates = 2.min(rows - 1);
    let inserts = rows - updates;
    let edits = plan.steps[plan.untimed..]
        .iter()
        .filter(|s| matches!(s, Step::Edit(_)))
        .count() as u64;
    let mut ns = Vec::new();
    let mut cal = RungCalib::new();
    for i in 0..edits {
        cal.step();
        let t0 = now_ns();
        let mut txn = db.begin();
        for k in 0..inserts as u64 {
            let id = txn.insert(table, row(i * 8 + k)).expect("raw insert");
            known.push(id);
        }
        for k in 0..updates {
            let target = known[known.len() - inserts - 1 - k];
            txn.set(table, target, &[("next", Value::Id(i))])
                .expect("raw update");
        }
        txn.commit().expect("raw commit");
        ns.push(now_ns() - t0);
    }
    cal.scale(&mut [&mut ns]);
    ns
}

// ---------------------------------------------------------- rung 2: collab

struct CollabRung {
    type_ns: Vec<u64>,
    sync_ns: Vec<u64>,
    retries: u64,
    reordered: u64,
}

fn collab_rung(plan: &Plan, seed: u64) -> CollabRung {
    let dir = fixture::scratch_dir("ladder-collab");
    let corpus = build_corpus(&plan.cfg, seed, &dir.join("tendax.wal"), None);
    let sessions: Vec<_> = (0..2)
        .map(|i| {
            corpus
                .tx
                .connect(&user_name(i), Platform::Linux)
                .expect("connect")
        })
        .collect();
    let mut editors: Vec<Vec<_>> = sessions
        .iter()
        .map(|s| {
            corpus
                .docs
                .iter()
                .map(|&d| s.open_id(d).expect("open an editor"))
                .collect()
        })
        .collect();
    let mut out = CollabRung {
        type_ns: Vec::new(),
        sync_ns: Vec::new(),
        retries: 0,
        reordered: 0,
    };
    let mut cal = RungCalib::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let timed = i >= plan.untimed;
        if timed {
            cal.step();
        }
        match step {
            Step::Edit(e) => {
                let (doc, typist) = (e.doc as usize, e.typist as usize);
                editors[typist][doc].sync();
                let t0 = now_ns();
                let done = if e.del > 0 {
                    editors[typist][doc].delete(e.pos as usize, e.del as usize)
                } else {
                    editors[typist][doc].type_text(e.pos as usize, &e.text)
                };
                let t1 = now_ns();
                editors[1 - typist][doc].sync();
                let t2 = now_ns();
                done.expect("ladder edit at the collab layer");
                if timed {
                    out.type_ns.push(t1 - t0);
                    out.sync_ns.push(t2 - t1);
                }
            }
            Step::Paste(p) => {
                let by = p.by as usize;
                editors[by][p.src_doc as usize].sync();
                editors[by][p.dst_doc as usize].sync();
                let clip = editors[by][p.src_doc as usize]
                    .copy(p.src_pos as usize, p.len as usize)
                    .expect("ladder copy");
                editors[by][p.dst_doc as usize]
                    .paste(p.dst_pos as usize, &clip)
                    .expect("ladder paste");
            }
            Step::Reopen(d) => {
                let fresh = sessions[1]
                    .open_id(corpus.docs[*d as usize])
                    .expect("ladder re-open");
                let aged = std::mem::replace(&mut editors[1][*d as usize], fresh).stats();
                out.retries += aged.retries;
                out.reordered += aged.events_reordered;
            }
            Step::Maintain { vacuum } => maintain(corpus.tx.textdb().database(), *vacuum),
        }
    }
    for s in editors.iter().flatten().map(|e| e.stats()) {
        out.retries += s.retries;
        out.reordered += s.events_reordered;
    }
    cal.scale(&mut [&mut out.type_ns, &mut out.sync_ns]);
    out
}

// ------------------------------------------------------------- rung 3: net

struct NetRung {
    ack_ns: Vec<u64>,
    visible_ns: Vec<u64>,
    ping_ns: Vec<u64>,
}

fn net_rung(plan: &Plan, seed: u64) -> NetRung {
    let dir = fixture::scratch_dir("ladder-net");
    let mut cal = RungCalib::new();
    let idle_threads = fixture::thread_count();
    let fx = build_tcp(&plan.cfg, seed, &dir.join("tendax.wal"));
    let mut out = NetRung {
        ack_ns: Vec::new(),
        visible_ns: Vec::new(),
        ping_ns: Vec::new(),
    };
    for (i, step) in plan.steps.iter().enumerate() {
        let e = match step {
            Step::Edit(e) => e,
            Step::Paste(_) => continue,
            Step::Reopen(d) => {
                let d = *d as usize;
                fx.clients[1].unsubscribe(fx.ids[d]).expect("ladder close");
                fx.clients[1]
                    .subscribe(&fx.corpus.names[d])
                    .expect("ladder re-open");
                continue;
            }
            Step::Maintain { vacuum } => {
                maintain(fx.corpus.tx.textdb().database(), *vacuum);
                continue;
            }
        };
        let timed = i >= plan.untimed;
        if timed {
            cal.step();
        }
        let id = fx.ids[e.doc as usize];
        let typist = &fx.clients[e.typist as usize];
        let t0 = now_ns();
        let reply = if e.del > 0 {
            typist.delete(id, e.pos as usize, e.del as usize)
        } else {
            typist.insert(id, e.pos as usize, &e.text)
        };
        let t1 = now_ns();
        let (_, ts) = reply.expect("ladder edit over TCP");
        assert!(
            fx.clients[1 - e.typist as usize].wait_synced(id, ts, VISIBLE_LIMIT),
            "ladder edit never became visible"
        );
        let t2 = now_ns();
        if timed {
            out.ack_ns.push(t1 - t0);
            out.visible_ns.push(t2 - t0);
        }
    }
    for _ in 0..300 {
        let t0 = now_ns();
        fx.clients[0].ping().expect("ping");
        out.ping_ns.push(now_ns() - t0);
    }
    cal.scale(&mut [&mut out.ack_ns, &mut out.visible_ns, &mut out.ping_ns]);
    drop(fx);
    fixture::wait_for_threads(idle_threads);
    out
}

// ------------------------------------------------------------------- codec

/// Mean microseconds to encode, and to frame-and-decode, the frame a
/// one-character insert sends.
fn codec_probe() -> (f64, f64) {
    const N: u32 = 20_000;
    let frame = Frame::Edit {
        request: 7,
        doc: 3,
        op: EditOp::Insert {
            pos: 1234,
            text: "x".into(),
        },
    };
    let t0 = now_ns();
    for _ in 0..N {
        std::hint::black_box(std::hint::black_box(&frame).encode());
    }
    let encode = (now_ns() - t0) as f64 / N as f64 / 1e3;
    let bytes = frame.encode();
    let t0 = now_ns();
    for _ in 0..N {
        let mut fb = FrameBuffer::default();
        fb.extend(std::hint::black_box(&bytes));
        let (tag, payload) = fb
            .try_frame()
            .expect("well-formed frame")
            .expect("complete frame");
        std::hint::black_box(Frame::decode(tag, &payload).expect("decodes"));
    }
    let decode = (now_ns() - t0) as f64 / N as f64 / 1e3;
    (encode, decode)
}

// ---------------------------------------------------------- counting proxy

/// A byte-counting TCP relay between the clients and the server: the
/// only way to see bytes on the wire from outside the program.
struct Proxy {
    addr: SocketAddr,
    bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

fn pump(mut from: TcpStream, mut to: TcpStream, bytes: Arc<AtomicU64>) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                bytes.fetch_add(n as u64, Ordering::Relaxed);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

impl Proxy {
    fn start(server: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the counting proxy");
        let addr = listener.local_addr().expect("proxy address");
        let bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let (bytes, stop, pumps) = (bytes.clone(), stop.clone(), pumps.clone());
            std::thread::spawn(move || {
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    let Ok(upstream) = TcpStream::connect(server) else {
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = upstream.set_nodelay(true);
                    let (c2, u2) = (
                        client.try_clone().expect("clone socket"),
                        upstream.try_clone().expect("clone socket"),
                    );
                    let (b1, b2) = (bytes.clone(), bytes.clone());
                    let mut pumps = pumps.lock().expect("pump list");
                    pumps.push(std::thread::spawn(move || pump(client, upstream, b1)));
                    pumps.push(std::thread::spawn(move || pump(u2, c2, b2)));
                }
            })
        };
        Proxy {
            addr,
            bytes,
            stop,
            accept: Some(accept),
            pumps,
        }
    }

    fn count(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Stop accepting and wait for every relay thread; call after the
    /// clients and the server are gone, so every socket has closed.
    fn finish(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let pumps = std::mem::take(&mut *self.pumps.lock().expect("pump list"));
        for h in pumps {
            let _ = h.join();
        }
    }
}

/// `(wire bytes per edit, snapshot bytes per open)`, both directions and
/// both clients together.
fn wire_probe(plan: &Plan, seed: u64) -> (f64, f64) {
    let dir = fixture::scratch_dir("ladder-wire");
    let idle_threads = fixture::thread_count();
    let corpus = build_corpus(&plan.cfg, seed, &dir.join("tendax.wal"), None);
    let server = NetServer::bind(
        "127.0.0.1:0",
        corpus.tx.server().clone(),
        NetConfig::default(),
    )
    .expect("bind the server behind the proxy");
    let proxy = Proxy::start(server.local_addr());
    let clients: Vec<NetClient> = (0..2)
        .map(|i| NetClient::connect(proxy.addr, &user_name(i)).expect("connect via proxy"))
        .collect();
    let ids: Vec<u64> = corpus
        .names
        .iter()
        .map(|n| {
            clients[1].subscribe(n).expect("subscribe via proxy");
            clients[0].subscribe(n).expect("subscribe via proxy")
        })
        .collect();

    let edits: Vec<&Edit> = plan
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Edit(e) => Some(e),
            _ => None,
        })
        .take(400)
        .collect();
    let before = proxy.count();
    for e in &edits {
        let id = ids[e.doc as usize];
        let typist = &clients[e.typist as usize];
        let reply = if e.del > 0 {
            typist.delete(id, e.pos as usize, e.del as usize)
        } else {
            typist.insert(id, e.pos as usize, &e.text)
        };
        let (_, ts) = reply.expect("edit via proxy");
        for c in &clients {
            assert!(
                c.wait_synced(id, ts, VISIBLE_LIMIT),
                "edit via proxy unseen"
            );
        }
    }
    let per_edit = (proxy.count() - before) as f64 / edits.len() as f64;

    let before = proxy.count();
    const OPENS: u64 = 5;
    for _ in 0..OPENS {
        clients[1]
            .unsubscribe(ids[0])
            .expect("unsubscribe via proxy");
        clients[1]
            .subscribe(&corpus.names[0])
            .expect("subscribe via proxy");
    }
    let per_open = (proxy.count() - before) as f64 / OPENS as f64;

    drop(clients);
    drop(server);
    proxy.finish();
    drop(corpus);
    fixture::wait_for_threads(idle_threads);
    (per_edit, per_open)
}

// ------------------------------------------------------------- crash check

/// Durability, with the unflushed bytes really gone: replay the first
/// [`CRASH_EDITS`] edits of the `typing_durable` schedule at `Fsync` on
/// the simulated disk, cut the power, reopen, and require every
/// acknowledged edit. Killing a process would leave the OS cache
/// intact; `SimVfs::crash` drops everything that was not synced. Lost
/// edits are failed ops. Returns charged I/O ops per edit.
pub fn crash_check(rec: &mut RunRecord, seed: u64) -> f64 {
    let w = tcp::typing_durable();
    assert_eq!(w.corpus.durability, DurabilityLevel::Fsync);
    let (rounds, _) = w.schedule(seed, 20);
    let edits: Vec<Edit> = rounds
        .into_iter()
        .flat_map(|r| r.edits)
        .take(CRASH_EDITS)
        .collect();
    let sim = SimVfs::new(seed);
    let vfs = || Some(Arc::new(sim.clone()) as Arc<dyn Vfs>);
    let wal = std::path::Path::new("/sim/tendax.wal");
    let corpus = build_corpus(&w.corpus, seed, wal, vfs());
    let mut model = Model::new(&corpus.texts);
    let docs = corpus.docs.clone();
    let ops_before = sim.ops();
    {
        let sessions: Vec<_> = (0..2)
            .map(|i| {
                corpus
                    .tx
                    .connect(&user_name(i), Platform::Linux)
                    .expect("connect")
            })
            .collect();
        let mut editors: Vec<Vec<_>> = sessions
            .iter()
            .map(|s| docs.iter().map(|&d| s.open_id(d).expect("open")).collect())
            .collect();
        for e in &edits {
            rec.attempted += 1;
            let ed = &mut editors[e.typist as usize][e.doc as usize];
            ed.sync();
            let acked = if e.del > 0 {
                ed.delete(e.pos as usize, e.del as usize)
            } else {
                ed.type_text(e.pos as usize, &e.text)
            };
            match acked {
                // Only an acknowledged edit is owed after the crash.
                Ok(_) => model.apply(e),
                Err(err) => rec.problem(format!("crash check: edit refused: {err}")),
            }
        }
    }
    let io_ops_per_edit = (sim.ops() - ops_before) as f64 / edits.len() as f64;
    drop(corpus);
    sim.crash();
    let (_, tx, texts) = fixture::reopen(&w.corpus, wal, vfs(), &docs);
    drop(tx);
    for (d, text) in texts.iter().enumerate() {
        if *text != model.text(d) {
            let lost = edits.iter().filter(|e| e.doc as usize == d).count();
            for _ in 0..lost {
                rec.problem(format!(
                    "crash check: document {d} lost acknowledged edits after the power cut"
                ));
            }
        }
    }
    io_ops_per_edit
}

// -------------------------------------------------------------------- run

/// Every rung and probe for `workload`; the layer metrics they yield.
pub fn run(workload: &str, seed: u64, seconds: u64) -> Values {
    let plan = plan(workload, seed, seconds);
    let mut v = Values::new();

    let text = text_rung(&plan, seed);
    let txn_ns = storage_rung(&plan, seed, text.rows_per_edit);
    let collab = collab_rung(&plan, seed);
    let edits = text.all_ns.len() as f64;

    let txn_us = p50_us(&txn_ns);
    let text_us = p50_us(&text.all_ns);
    let collab_us = p50_us(&collab.type_ns);
    v.insert("storage.commit.txn_us", txn_us);
    v.insert("text.insert_us", p50_us(&text.insert_ns));
    v.insert("text.delete_us", p50_us(&text.delete_ns));
    v.insert("text.self_us", text_us - txn_us);
    v.insert("text.rows_written_per_char", text.rows_per_char);
    v.insert("text.open_us", p50_us(&text.open_ns));
    v.insert("text.render_us", p50_us(&text.render_ns));
    v.insert("text.copy_us", p50_us(&text.copy_ns));
    v.insert("text.paste_us", p50_us(&text.paste_ns));
    v.insert("collab.type_us", collab_us);
    v.insert("collab.sync_us", p50_us(&collab.sync_ns));
    v.insert("collab.self_us", collab_us - text_us);
    v.insert("collab.retries_per_edit", collab.retries as f64 / edits);
    v.insert("collab.events_reordered", collab.reordered as f64);

    let top_us = if plan.over_tcp {
        let net = net_rung(&plan, seed);
        let net_us = p50_us(&net.ack_ns);
        v.insert("net.insert_us", net_us);
        v.insert("net.self_us", net_us - collab_us);
        v.insert("net.ping_us", p50_us(&net.ping_ns));
        let (encode, decode) = codec_probe();
        v.insert("net.codec.encode_us", encode);
        v.insert("net.codec.decode_us", decode);
        let (per_edit, per_open) = wire_probe(&plan, seed);
        v.insert("net.wire_bytes_per_edit", per_edit);
        v.insert("net.snapshot_bytes_per_open", per_open);
        net_us
    } else {
        // Search index build: only this workload keeps an engine.
        let dir = fixture::scratch_dir("ladder-search");
        let corpus = build_corpus(&plan.cfg, seed, &dir.join("tendax.wal"), None);
        let build_ns: Vec<u64> = (0..5)
            .map(|_| {
                let t0 = now_ns();
                std::hint::black_box(SearchEngine::build(corpus.tx.textdb()).expect("build"));
                now_ns() - t0
            })
            .collect();
        v.insert("meta.search.build_us", p50_us(&build_ns));
        collab_us
    };
    v.insert("bench.ladder.edit_ack_p50_us", top_us);
    v.insert("bench.ladder.edits", edits);
    v
}
