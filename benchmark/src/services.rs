//! `workspace_services`: the metadata services beside editing, all
//! in-process, no TCP.
//!
//! Every round runs every op class once (edits many times) in a fixed
//! order, so classes are interleaved and never phased: whatever drifts
//! on the machine during a run hits all classes alike.

use tendax_core::{
    Assignee, DurabilityLevel, EditorDoc, EditorSession, FolderRule, FolderSet, Platform,
    SearchEngine, SearchQuery, TaskSpec,
};
use tendax_meta::mining::{collect_features, kmeans, normalize, pca_2d};
use tendax_meta::{char_provenance, FolderId};

use crate::calib::Calib;
use crate::fixture::{self, build_corpus, now_ns, user_name, Corpus, CorpusCfg};
use crate::record::{BusCounters, RunRecord, WalCounters};
use crate::schedule::{
    digest_services, digest_texts, gen_services, run_rounds, EditCfg, Mix, Model, ServiceRound,
    FOLDERS, STATES, VOCAB,
};
use crate::tcp::{reopen_and_weigh, SETUPS};
use crate::trace::{Class, Tracer};

pub const USERS: usize = 6;
pub const DOCS: usize = 64;
pub const DOC_CHARS: usize = 400;
pub const EDITS_PER_ROUND: usize = 32;
/// Rounds per second of `--seconds` (see `run_rounds`).
pub const ROUNDS_PER_S: f64 = 16.0;

pub fn corpus_cfg() -> CorpusCfg {
    CorpusCfg {
        durability: DurabilityLevel::Buffered,
        cold: false,
        users: USERS,
        doc_lens: vec![DOC_CHARS; DOCS],
        paste_web: 4,
    }
}

pub const EDIT_CFG: EditCfg = EditCfg {
    mix: Mix {
        ins_char: 55,
        ins_word: 8,
        backspace: 30,
        del_word: 7,
    },
    burst: 8,
    active_docs: DOCS,
    zipf_s: 1.1,
    alternate: true,
    jump_every: 16,
};

pub fn schedule(seed: u64, seconds: u64) -> (Vec<ServiceRound>, usize) {
    let (measured, warm) = run_rounds(ROUNDS_PER_S, seconds);
    let rounds = gen_services(
        seed,
        &corpus_cfg().doc_lens,
        USERS,
        warm + measured,
        EDITS_PER_ROUND,
        EDIT_CFG,
    );
    (rounds, warm)
}

/// The workspace two users have open. Field order is drop order: every
/// handle on the database goes before the database.
pub struct Workspace {
    pub editors: [Vec<EditorDoc>; 2],
    pub sessions: [EditorSession; 2],
    pub folders: Vec<(FolderId, FolderSet)>,
    pub engine: SearchEngine,
    pub corpus: Corpus,
}

pub fn build_workspace(seed: u64, wal_path: &std::path::Path) -> Workspace {
    let corpus = build_corpus(&corpus_cfg(), seed, wal_path, None);
    let tx = &corpus.tx;
    let since = tx.textdb().now();
    let u = |i: usize| corpus.users[i].0;
    let rules = [
        FolderRule::AuthoredBy { user: u(1) },
        FolderRule::StateIs("review".into()),
        FolderRule::ContentContains("lineage".into()),
        FolderRule::EditedSince(since),
        FolderRule::ReadBy { user: u(0), since },
        FolderRule::MinSize(DOC_CHARS)
            .and(FolderRule::StateIs("final".into()).or(FolderRule::NameContains("7".into()))),
    ];
    assert_eq!(rules.len(), FOLDERS);
    let folders = rules
        .into_iter()
        .enumerate()
        .map(|(i, rule)| {
            let id = tx
                .folders()
                .create_folder(&format!("folder{i}"), corpus.users[0], rule)
                .expect("create folder");
            (id, tx.folders().watch(id).expect("watch folder"))
        })
        .collect();
    let connect = |i: usize| {
        tx.connect(&user_name(i), Platform::Linux)
            .expect("connect a session")
    };
    let sessions = [connect(0), connect(1)];
    let open_all = |s: &EditorSession| -> Vec<EditorDoc> {
        corpus
            .docs
            .iter()
            .map(|&d| s.open_id(d).expect("open an editor"))
            .collect()
    };
    let editors = [open_all(&sessions[0]), open_all(&sessions[1])];
    let engine = tx.search().expect("build the search engine");
    Workspace {
        editors,
        sessions,
        folders,
        engine,
        corpus,
    }
}

fn editor_totals(ws: &Workspace) -> (u64, u64) {
    ws.editors
        .iter()
        .flatten()
        .map(|e| e.stats())
        .fold((0, 0), |(r, o), s| (r + s.retries, o + s.events_reordered))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> RunRecord {
    let (rounds, warm) = schedule(seed, seconds);
    let mut rec = RunRecord {
        tracer: Tracer::new(traced),
        schedule_digest: digest_services(&rounds),
        ..RunRecord::default()
    };
    let mut calib = Calib::new();
    let (setups, mut ws) = fixture::timed_setups(SETUPS, &mut calib, |i| {
        let dir = fixture::scratch_dir(&format!("workspace_services-{i}"));
        build_workspace(seed, &dir.join("tendax.wal"))
    });
    rec.setups = setups;
    rec.calib_rss_mb = calib.footprint_mb;
    rec.user_bytes = ws.corpus.user_bytes;
    let mut model = Model::new(&ws.corpus.texts);
    let tx = ws.corpus.tx.clone();
    let db = tx.textdb().database().clone();
    let users = ws.corpus.users.clone();
    let docs = ws.corpus.docs.clone();

    let mut engine0 = db.stats();
    let mut wal0 = WalCounters::read(&db);
    let mut bus0 = tx.server().transport().stats();
    let mut editors0 = editor_totals(&ws);
    let mut op = 0u32;

    for (r, round) in rounds.iter().enumerate() {
        if r == warm {
            rec.samples.clear();
            rec.tracer.spans.clear();
            rec.deltas = Default::default();
            rec.folder_changes = 0;
            rec.wal_bytes.restart(&db);
            engine0 = db.stats();
            wal0 = WalCounters::read(&db);
            bus0 = tx.server().transport().stats();
            editors0 = editor_totals(&ws);
        }
        let (mem, net) = calib.sample();
        rec.samples.push(Class::CalibMem, mem);
        rec.samples.push(Class::CalibNet, net);
        let round_start = now_ns();
        let mut round_edits_ns = 0;
        // Time spent reading the whole corpus or a whole document.
        let mut long_ns = 0;

        for e in &round.edits {
            op += 1;
            rec.attempted += 1;
            rec.user_bytes += e.inserted_bytes();
            let (doc, typist) = (e.doc as usize, e.typist as usize);
            // The typist's window is up to date before the keystroke, as
            // it is for someone looking at their screen.
            ws.editors[typist][doc].sync();
            let before = traced.then(|| db.stats());
            let t0 = now_ns();
            let reply = if e.del > 0 {
                ws.editors[typist][doc].delete(e.pos as usize, e.del as usize)
            } else {
                ws.editors[typist][doc].type_text(e.pos as usize, &e.text)
            };
            let t1 = now_ns();
            ws.editors[1 - typist][doc].sync();
            let t2 = now_ns();
            model.apply(e);
            if let Err(err) = reply {
                rec.problem(format!("edit {op} failed: {err}"));
                continue;
            }
            rec.samples.push(Class::EditAck, t1 - t0);
            rec.samples.push(Class::EditVisible, t2 - t0);
            round_edits_ns += t2 - t0;
            if let Some(before) = before {
                rec.deltas.edit.add(&before, &db.stats());
                let root = rec.tracer.open("edit", op, t0);
                let call = if e.del > 0 {
                    "collab.delete"
                } else {
                    "collab.type_text"
                };
                rec.tracer.span(call, op, root, t0, t1);
                rec.tracer.span("collab.sync", op, root, t1, t2);
                rec.tracer.close(root, t2);
            }
        }

        rec.samples.push(Class::RoundEdits, round_edits_ns);

        // Copy from one document, paste into another.
        op += 1;
        rec.attempted += 1;
        let p = &round.paste;
        let (by, src, dst) = (p.by as usize, p.src_doc as usize, p.dst_doc as usize);
        ws.editors[by][src].sync();
        ws.editors[by][dst].sync();
        let c0 = now_ns();
        let clip = ws.editors[by][src].copy(p.src_pos as usize, p.len as usize);
        let c1 = now_ns();
        rec.tracer.span("text.copy", op, 0, c0, c1);
        model.paste(p);
        rec.user_bytes += p.len as u64;
        match clip {
            Ok(clip) => {
                let before = traced.then(|| db.stats());
                let t0 = now_ns();
                let pasted = ws.editors[by][dst].paste(p.dst_pos as usize, &clip);
                let t1 = now_ns();
                match pasted {
                    Ok(_) => {
                        rec.samples.push(Class::Paste, t1 - t0);
                        rec.tracer.span("collab.paste", op, 0, t0, t1);
                        if let Some(before) = before {
                            rec.deltas.paste.add(&before, &db.stats());
                        }
                    }
                    Err(err) => rec.problem(format!("paste {op} failed: {err}")),
                }
            }
            Err(err) => rec.problem(format!("copy {op} failed: {err}")),
        }

        // A document changes workflow state, so folders have something
        // to notice.
        if let Err(err) = tx.textdb().set_document_state(
            docs[round.state_doc as usize],
            STATES[round.state as usize],
            users[0],
        ) {
            rec.problem(format!("state change in round {r} failed: {err}"));
        }

        // Refresh one dynamic folder.
        op += 1;
        rec.attempted += 1;
        let (folder_id, watch) = &mut ws.folders[round.folder as usize];
        if traced {
            let t0 = now_ns();
            let _ = tx.folders().evaluate(*folder_id);
            rec.tracer.span("meta.folder.evaluate", op, 0, t0, now_ns());
        }
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let changes = watch.refresh();
        let t1 = now_ns();
        match changes {
            Ok(changes) => {
                rec.folder_changes += changes.len() as u64;
                rec.samples.push(Class::Folder, t1 - t0);
                long_ns += t1 - t0;
                rec.tracer.span("meta.folder.refresh", op, 0, t0, t1);
                if let Some(before) = before {
                    rec.deltas.folder.add(&before, &db.stats());
                }
            }
            Err(err) => rec.problem(format!("folder refresh {op} failed: {err}")),
        }

        // Re-index one document, then search.
        op += 1;
        rec.attempted += 1;
        let query = SearchQuery::terms(VOCAB[round.term as usize]).limit(10);
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let updated = ws.engine.update_document(docs[round.search_doc as usize]);
        let t1 = now_ns();
        let hits = ws.engine.search(&query);
        let t2 = now_ns();
        match (updated, hits) {
            (Ok(()), Ok(_)) => {
                rec.samples.push(Class::Search, t2 - t0);
                let root = rec.tracer.open("search", op, t0);
                rec.tracer.span("meta.search.update", op, root, t0, t1);
                rec.tracer.span("meta.search.query", op, root, t1, t2);
                rec.tracer.close(root, t2);
                if let Some(before) = before {
                    rec.deltas.search.add(&before, &db.stats());
                }
            }
            (Err(err), _) | (_, Err(err)) => rec.problem(format!("search {op} failed: {err}")),
        }

        // Visual mining: the document space. The traced pass makes the
        // same public calls `DocumentSpace::build` makes, one by one.
        op += 1;
        rec.attempted += 1;
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let mined = if traced {
            collect_features(tx.textdb()).map(|mut features| {
                let t1 = now_ns();
                normalize(&mut features);
                let coords = pca_2d(&features);
                let clusters = kmeans(&coords, 4, 25);
                let t2 = now_ns();
                let root = rec.tracer.open("mining", op, t0);
                rec.tracer.span("meta.mining.features", op, root, t0, t1);
                rec.tracer.span("meta.mining.pca_kmeans", op, root, t1, t2);
                rec.tracer.close(root, t2);
                clusters.len()
            })
        } else {
            tx.document_space(4).map(|s| s.points.len())
        };
        let t1 = now_ns();
        match mined {
            Ok(n) if n == DOCS => {
                rec.samples.push(Class::Mining, t1 - t0);
                long_ns += t1 - t0;
                if let Some(before) = before {
                    rec.deltas.mining.add(&before, &db.stats());
                }
            }
            Ok(n) => rec.problem(format!("mining {op} placed {n} of {DOCS} documents")),
            Err(err) => rec.problem(format!("mining {op} failed: {err}")),
        }

        // Data lineage.
        op += 1;
        rec.attempted += 1;
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let graph = tx.lineage();
        let t1 = now_ns();
        match graph {
            Ok(g) if !g.edges.is_empty() => {
                rec.samples.push(Class::Lineage, t1 - t0);
                rec.tracer.span("meta.lineage.build", op, 0, t0, t1);
                if let Some(before) = before {
                    rec.deltas.lineage.add(&before, &db.stats());
                }
            }
            Ok(_) => rec.problem(format!("lineage {op} found no paste edges")),
            Err(err) => rec.problem(format!("lineage {op} failed: {err}")),
        }
        if traced {
            // Where did the character just pasted come from?
            let pasted = ws.editors[by][dst].handle().char_at(p.dst_pos as usize);
            if let Some(ch) = pasted {
                let t0 = now_ns();
                let hops = char_provenance(tx.textdb(), docs[dst], ch);
                rec.tracer
                    .span("meta.lineage.provenance", op, 0, t0, now_ns());
                if !hops.is_ok_and(|h| h.len() >= 2) {
                    rec.problem(format!("provenance {op}: pasted character has no source"));
                }
            }
        }

        // Route a task: define, find it in the assignee's inbox, complete.
        op += 1;
        rec.attempted += 1;
        let assignee = users[round.task_to as usize];
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let routed = tx
            .process()
            .define_task(
                docs[round.task_doc as usize],
                users[round.task_by as usize],
                TaskSpec::new("review", Assignee::User(assignee)),
            )
            .and_then(|task| {
                let t1 = now_ns();
                let inbox = tx.process().inbox(assignee)?;
                let t2 = now_ns();
                let found = inbox.iter().any(|t| t.id == task);
                tx.process().complete(task, assignee, "done")?;
                Ok((found, t1, t2))
            });
        let t3 = now_ns();
        match routed {
            Ok((true, t1, t2)) => {
                rec.samples.push(Class::Task, t3 - t0);
                let root = rec.tracer.open("task_route", op, t0);
                rec.tracer.span("process.define", op, root, t0, t1);
                rec.tracer.span("process.inbox", op, root, t1, t2);
                rec.tracer.span("process.complete", op, root, t2, t3);
                rec.tracer.close(root, t3);
                if let Some(before) = before {
                    rec.deltas.task.add(&before, &db.stats());
                }
            }
            Ok((false, ..)) => rec.problem(format!("task {op} never reached the inbox")),
            Err(err) => rec.problem(format!("task {op} failed: {err}")),
        }

        // User B opens a document in a new window and closes it.
        op += 1;
        rec.attempted += 1;
        let before = traced.then(|| db.stats());
        let t0 = now_ns();
        let opened = ws.sessions[1].open_id(docs[round.open_doc as usize]);
        let t1 = now_ns();
        match opened {
            Ok(ed) => {
                rec.samples.push(Class::DocOpen, t1 - t0);
                long_ns += t1 - t0;
                rec.tracer.span("collab.open", op, 0, t0, t1);
                if let Some(before) = before {
                    rec.deltas.open.add(&before, &db.stats());
                }
                if traced {
                    let t0 = now_ns();
                    let text = ed.text();
                    rec.tracer.span("text.render", op, 0, t0, now_ns());
                    std::hint::black_box(text);
                }
            }
            Err(err) => rec.problem(format!("open {op} failed: {err}")),
        }

        let round_ns = now_ns() - round_start;
        rec.samples.push(Class::Round, round_ns);
        rec.samples.push(Class::RoundShort, round_ns - long_ns);
    }

    rec.edits = rec.samples.of(Class::EditAck).len() as u64;
    rec.engine = (engine0, db.stats());
    rec.wal = WalCounters::read(&db).since(&wal0);
    rec.wal_bytes.pause(&db);
    rec.wal_size_end = db.wal_size().0;
    rec.ram_versions_end = db.ram_version_count() as u64;
    rec.bus = BusCounters::between(&bus0, &tx.server().transport().stats());
    let editors1 = editor_totals(&ws);
    rec.session_retries = editors1.0 - editors0.0;
    rec.events_reordered = editors1.1 - editors0.1;

    // Both users' windows and a fresh read must equal the model.
    let want: Vec<String> = (0..DOCS).map(|d| model.text(d)).collect();
    rec.model_digest = model.digest();
    for (u, editors) in ws.editors.iter_mut().enumerate() {
        let got: Vec<String> = editors
            .iter_mut()
            .map(|e| {
                e.sync();
                e.text()
            })
            .collect();
        rec.check_texts(&format!("window of user {u}"), &got, &want);
    }
    let fresh = ws.corpus.fresh_texts();
    rec.doc_digest = digest_texts(&fresh);
    rec.check_texts("fresh TextDb::open", &fresh, &want);

    let wal_path = ws.corpus.wal_path.clone();
    drop((db, tx, ws));
    reopen_and_weigh(
        &mut rec,
        &corpus_cfg(),
        &wal_path,
        &docs,
        &model,
        &mut calib,
    );
    rec
}
