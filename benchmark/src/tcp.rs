//! The three TCP workloads: `typing_tcp`, `typing_durable` and
//! `big_doc_churn`.
//!
//! One driver thread, two connections, one op in flight. A round is a
//! run of edits — each timed from the call to its reply (ack) and on to
//! the moment the other client's mirror has it (visible) — followed by
//! client B dropping and re-opening a document (a full snapshot).

use std::time::Duration;

use tendax_core::DurabilityLevel;

use crate::calib::{factor_around, Calib};
use crate::fixture::{self, build_tcp, now_ns, CorpusCfg, TcpFixture};
use crate::record::{BusCounters, NetCounters, RunRecord, WalCounters};
use crate::schedule::{
    digest_tcp, digest_texts, gen_tcp, run_rounds, EditCfg, Mix, Model, TcpRound,
};
use crate::trace::{Class, Tracer};

/// An op fails if the other client does not show it within this long.
pub const VISIBLE_LIMIT: Duration = Duration::from_secs(5);
pub const SETUPS: usize = 5;
pub const REOPENS: usize = 7;

#[derive(Debug, Clone)]
pub struct TcpWorkload {
    pub name: &'static str,
    pub corpus: CorpusCfg,
    pub edits_per_round: usize,
    /// Rounds per second of `--seconds` (see `run_rounds`).
    pub rounds_per_s: f64,
    pub edit: EditCfg,
    /// `checkpoint()` (after `vacuum()` if set) every this many rounds.
    pub maintain_every: usize,
    pub vacuum: bool,
}

/// What a typist does, in parts per hundred. Close to "mostly single
/// characters, some words, a quarter corrections", weighted so that a
/// document grows by about 0.3 characters per edit and stays below
/// twice its starting length over the longest run.
const TYPING_MIX: Mix = Mix {
    ins_char: 55,
    ins_word: 8,
    backspace: 30,
    del_word: 7,
};

fn typing(name: &'static str, durability: DurabilityLevel, edits: usize, rate: f64) -> TcpWorkload {
    TcpWorkload {
        name,
        corpus: CorpusCfg {
            durability,
            cold: false,
            users: 2,
            doc_lens: vec![4_000; 8],
            paste_web: 0,
        },
        edits_per_round: edits,
        rounds_per_s: rate,
        edit: EditCfg {
            mix: TYPING_MIX,
            burst: 8,
            active_docs: 8,
            zipf_s: 1.1,
            alternate: true,
            jump_every: 16,
        },
        maintain_every: 5_000 / edits,
        vacuum: false,
    }
}

pub fn typing_tcp() -> TcpWorkload {
    typing("typing_tcp", DurabilityLevel::Buffered, 40, 39.0)
}

pub fn typing_durable() -> TcpWorkload {
    typing("typing_durable", DurabilityLevel::Fsync, 20, 35.0)
}

pub fn big_doc_churn() -> TcpWorkload {
    let mut doc_lens = vec![24_000];
    doc_lens.extend([500; 7]);
    TcpWorkload {
        name: "big_doc_churn",
        corpus: CorpusCfg {
            durability: DurabilityLevel::Buffered,
            cold: true,
            users: 2,
            doc_lens,
            paste_web: 0,
        },
        edits_per_round: 24,
        rounds_per_s: 16.0,
        edit: EditCfg {
            mix: Mix {
                ins_char: 55,
                ins_word: 0,
                backspace: 45,
                del_word: 0,
            },
            burst: 8,
            active_docs: 1,
            zipf_s: 0.0,
            alternate: false,
            jump_every: 8,
        },
        maintain_every: 40,
        vacuum: true,
    }
}

pub fn by_name(name: &str) -> Option<TcpWorkload> {
    match name {
        "typing_tcp" => Some(typing_tcp()),
        "typing_durable" => Some(typing_durable()),
        "big_doc_churn" => Some(big_doc_churn()),
        _ => None,
    }
}

impl TcpWorkload {
    /// The whole schedule and how many of its first rounds are warm-up.
    pub fn schedule(&self, seed: u64, seconds: u64) -> (Vec<TcpRound>, usize) {
        let (measured, warm) = run_rounds(self.rounds_per_s, seconds);
        let rounds = gen_tcp(
            seed,
            &self.corpus.doc_lens,
            warm + measured,
            self.edits_per_round,
            self.edit,
        );
        (rounds, warm)
    }
}

/// One full pass: set-up, warm-up, measured phase, verification,
/// reopen, final checkpoint.
pub fn run(w: &TcpWorkload, seed: u64, seconds: u64, traced: bool) -> RunRecord {
    let (rounds, warm) = w.schedule(seed, seconds);
    let mut rec = RunRecord {
        tracer: Tracer::new(traced),
        schedule_digest: digest_tcp(&rounds),
        ..RunRecord::default()
    };

    let mut calib = Calib::new();
    let idle_threads = fixture::thread_count();
    let (setups, fx) = fixture::timed_setups(SETUPS, &mut calib, |i| {
        let dir = fixture::scratch_dir(&format!("{}-{i}", w.name));
        build_tcp(&w.corpus, seed, &dir.join("tendax.wal"))
    });
    rec.setups = setups;
    rec.calib_rss_mb = calib.footprint_mb;
    let mut model = Model::new(&fx.corpus.texts);
    let mut last_ts = vec![0u64; fx.ids.len()];
    rec.user_bytes = fx.corpus.user_bytes;

    let db = fx.corpus.tx.textdb().database().clone();
    let setup_ts = db.last_commit_ts();
    let mut engine0 = db.stats();
    let mut wal0 = WalCounters::read(&db);
    let mut net0 = fx.server.stats();
    let mut bus0 = fx.corpus.tx.server().transport().stats();
    let mut retries0: u64 = fx.corpus.tx.server().retries_by_session().values().sum();
    let mut op = 0u32;

    for (r, round) in rounds.iter().enumerate() {
        if r == warm {
            // Warm-up ends: drop its samples and re-base the counters.
            rec.samples.clear();
            rec.tracer.spans.clear();
            rec.deltas = Default::default();
            rec.wal_bytes = Default::default();
            rec.wal_bytes.restart(&db);
            engine0 = db.stats();
            wal0 = WalCounters::read(&db);
            net0 = fx.server.stats();
            bus0 = fx.corpus.tx.server().transport().stats();
            retries0 = fx.corpus.tx.server().retries_by_session().values().sum();
        }
        let (mem, net) = calib.sample();
        rec.samples.push(Class::CalibMem, mem);
        rec.samples.push(Class::CalibNet, net);
        let round_start = now_ns();
        let mut round_edits_ns = 0;
        for e in &round.edits {
            op += 1;
            rec.attempted += 1;
            rec.user_bytes += e.inserted_bytes();
            let doc = e.doc as usize;
            let typist = &fx.clients[e.typist as usize];
            let other = &fx.clients[1 - e.typist as usize];
            let id = fx.ids[doc];
            let before = traced.then(|| db.stats());
            let t0 = now_ns();
            let reply = if e.del > 0 {
                typist.delete(id, e.pos as usize, e.del as usize)
            } else {
                typist.insert(id, e.pos as usize, &e.text)
            };
            let t1 = now_ns();
            model.apply(e);
            let ts = match reply {
                Ok((_, ts)) => ts,
                Err(err) => {
                    rec.problem(format!("edit {op} failed: {err}"));
                    continue;
                }
            };
            let shown = other.wait_synced(id, ts, VISIBLE_LIMIT);
            let t2 = now_ns();
            last_ts[doc] = ts;
            if !shown {
                rec.problem(format!("edit {op} not visible within {VISIBLE_LIMIT:?}"));
                continue;
            }
            rec.samples.push(Class::EditAck, t1 - t0);
            rec.samples.push(Class::EditVisible, t2 - t0);
            round_edits_ns += t2 - t0;
            if let Some(before) = before {
                rec.deltas.edit.add(&before, &db.stats());
                let root = rec.tracer.open("edit", op, t0);
                let call = if e.del > 0 {
                    "net.delete"
                } else {
                    "net.insert"
                };
                rec.tracer.span(call, op, root, t0, t1);
                rec.tracer.span("net.wait_synced", op, root, t1, t2);
                rec.tracer.close(root, t2);
            }
        }

        rec.samples.push(Class::RoundEdits, round_edits_ns);
        // Edits are the only short ops of a TCP round.
        rec.samples.push(Class::RoundShort, round_edits_ns);

        // Client B closes the document and opens it again.
        op += 1;
        rec.attempted += 1;
        let doc = round.open_doc as usize;
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let reopened = fx.clients[1]
            .unsubscribe(fx.ids[doc])
            .and_then(|()| fx.clients[1].subscribe(&fx.corpus.names[doc]));
        let t1 = now_ns();
        match reopened {
            Ok(id) if id == fx.ids[doc] => {
                rec.samples.push(Class::DocOpen, t1 - t0);
                if let Some(before) = before {
                    rec.deltas.open.add(&before, &db.stats());
                    rec.tracer.span("net.resubscribe", op, 0, t0, t1);
                }
            }
            Ok(id) => rec.problem(format!("open {op}: wire id changed to {id}")),
            Err(err) => rec.problem(format!("open {op} failed: {err}")),
        }

        if w.maintain_every > 0 && (r + 1) % w.maintain_every == 0 {
            rec.wal_bytes.pause(&db);
            if w.vacuum {
                op += 1;
                rec.attempted += 1;
                let t0 = now_ns();
                db.vacuum();
                let t1 = now_ns();
                rec.samples.push(Class::Vacuum, t1 - t0);
                rec.tracer.span("storage.vacuum", op, 0, t0, t1);
            }
            op += 1;
            rec.attempted += 1;
            let t0 = now_ns();
            let done = db.checkpoint();
            let t1 = now_ns();
            rec.samples.push(Class::Checkpoint, t1 - t0);
            rec.tracer.span("storage.checkpoint", op, 0, t0, t1);
            match done {
                Ok(()) => rec.maint_cycles += 1,
                Err(err) => rec.problem(format!("checkpoint {op} failed: {err}")),
            }
            rec.wal_bytes.restart(&db);
        }
        rec.samples.push(Class::Round, now_ns() - round_start);
        if traced {
            rec.net.threads_peak = rec.net.threads_peak.max(fixture::thread_count());
        }
    }

    if traced && w.corpus.cold {
        cold_probe(&mut rec, &fx, setup_ts);
    }
    rec.edits = rec.samples.of(Class::EditAck).len() as u64;
    rec.engine = (engine0, db.stats());
    rec.wal = WalCounters::read(&db).since(&wal0);
    rec.wal_bytes.pause(&db);
    rec.wal_size_end = db.wal_size().0;
    rec.ram_versions_end = db.ram_version_count() as u64;
    let net1 = fx.server.stats();
    rec.net = NetCounters {
        events_forwarded: net1.events_forwarded - net0.events_forwarded,
        frames_dropped: net1.frames_dropped - net0.frames_dropped,
        slow_disconnects: net1.slow_disconnects - net0.slow_disconnects,
        pool_spurious_wakeups: net1.pool_spurious_wakeups - net0.pool_spurious_wakeups,
        threads_peak: rec.net.threads_peak,
    };
    rec.bus = BusCounters::between(&bus0, &fx.corpus.tx.server().transport().stats());
    let retries1: u64 = fx.corpus.tx.server().retries_by_session().values().sum();
    rec.session_retries = retries1 - retries0;

    verify_live(&mut rec, &fx, &model, &last_ts);

    // Drop everything, then reopen from the files alone.
    let (wal_path, docs) = (fx.corpus.wal_path.clone(), fx.corpus.docs.clone());
    drop((db, fx));
    fixture::wait_for_threads(idle_threads);
    reopen_and_weigh(&mut rec, &w.corpus, &wal_path, &docs, &model, &mut calib);
    rec
}

/// Point reads at the snapshot taken right after set-up, of rows that
/// have been rewritten since: by now those versions live in cold runs.
fn cold_probe(rec: &mut RunRecord, fx: &TcpFixture, setup_ts: u64) {
    let tdb = fx.corpus.tx.textdb();
    let db = tdb.database();
    let chars = tdb.tables().chars;
    let rewritten = db.begin_at(setup_ts).and_then(|old| {
        let now = db.begin();
        let mut rows = Vec::new();
        for (row, then) in old.scan(chars, &tendax_storage::Predicate::True)? {
            if now.get(chars, row)?.is_none_or(|cur| cur != then) {
                rows.push(row);
            }
        }
        Ok(rows)
    });
    let rows = match rewritten {
        Ok(rows) => rows,
        Err(err) => return rec.problem(format!("cold probe at {setup_ts}: {err}")),
    };
    let old = match db.begin_at(setup_ts) {
        Ok(txn) => txn,
        Err(err) => return rec.problem(format!("cold probe: begin_at({setup_ts}): {err}")),
    };
    for row in rows.iter().step_by((rows.len() / 400).max(1)) {
        let t0 = now_ns();
        let got = old.get(chars, *row);
        rec.cold_get_ns.push(now_ns() - t0);
        if !matches!(got, Ok(Some(_))) {
            rec.problem(format!("cold probe: row {row:?} unreadable at {setup_ts}"));
        }
    }
}

/// Both mirrors and a fresh read of every document must equal the model.
fn verify_live(rec: &mut RunRecord, fx: &TcpFixture, model: &Model, last_ts: &[u64]) {
    let want: Vec<String> = (0..fx.ids.len()).map(|d| model.text(d)).collect();
    rec.model_digest = model.digest();
    for (c, client) in fx.clients.iter().enumerate() {
        let got: Vec<String> = fx
            .ids
            .iter()
            .zip(last_ts)
            .map(|(&id, &ts)| {
                client.wait_synced(id, ts, VISIBLE_LIMIT);
                client.text(id).unwrap_or_default()
            })
            .collect();
        rec.check_texts(&format!("mirror of client {c}"), &got, &want);
    }
    let fresh = fx.corpus.fresh_texts();
    rec.doc_digest = digest_texts(&fresh);
    rec.check_texts("fresh TextDb::open", &fresh, &want);
}

/// Reopen [`REOPENS`] times (each timed, with a calibration burst before
/// and after, and verified), then checkpoint once more and weigh what is
/// on disk.
pub fn reopen_and_weigh(
    rec: &mut RunRecord,
    cfg: &CorpusCfg,
    wal_path: &std::path::Path,
    docs: &[tendax_core::DocId],
    model: &Model,
    calib: &mut Calib,
) {
    let want: Vec<String> = (0..docs.len()).map(|d| model.text(d)).collect();
    let dir = wal_path
        .parent()
        .expect("the WAL lives in a scratch directory");
    let mut before = calib.burst();
    for i in 0..REOPENS {
        let (secs, tx, texts) = fixture::reopen(cfg, wal_path, None, docs);
        let after = calib.burst();
        rec.reopens.push(secs, factor_around(&before, &after));
        rec.check_texts(&format!("reopen {i}"), &texts, &want);
        if i + 1 == REOPENS {
            rec.bytes_before_checkpoint = fixture::dir_bytes(dir);
            if let Err(err) = tx.textdb().database().checkpoint() {
                rec.problem(format!("final checkpoint failed: {err}"));
            }
        }
        drop(tx);
        before = after;
    }
    rec.stored_bytes = fixture::dir_bytes(dir);
}
