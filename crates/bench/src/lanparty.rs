//! The "LAN party" macro-workload engine (`DESIGN.md` §5.9).
//!
//! Simulates N users editing M documents — Zipf-popular, so a few
//! documents are hot — with a mixed op stream covering everything the
//! demo showed live: typing bursts, copy-paste (lineage), dynamic-folder
//! refreshes, metadata search, mining sweeps, and process routing.
//!
//! The schedule is **generated up front** from a seed: every random
//! draw (actor, document, positions, burst text) happens during
//! generation, never during execution, and [`Schedule::digest`] hashes
//! the full op stream so identical seeds provably produce identical
//! runs. Execution is sequential in schedule order — the same
//! deterministic-schedule methodology as the storage crate's crash
//! simulator — which keeps final document bytes reproducible while
//! still timing the real multi-session stack (commit pipeline, bus
//! fan-out, retry machinery, and optionally the TCP transport).
//!
//! Two drivers share one schedule:
//!
//! * [`run_in_process`] — editor sessions on the in-process [`LanBus`];
//! * [`run_tcp`] — one [`NetClient`] per user against a [`NetServer`]
//!   on loopback. Text ops travel the wire (paste is rendered as an
//!   insert of the copied mirror text — the wire protocol carries only
//!   insert/delete); metadata ops (folders, search, mining, process)
//!   run server-side, as the demo's fat server did.
//!
//! [`LanBus`]: tendax_collab::LanBus

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tendax_core::{
    Assignee, DocId, DurabilityLevel, EditorDoc, FolderRule, Options, Platform, SearchEngine,
    SearchQuery, TaskSpec, Tendax, UserId,
};
use tendax_net::{ClientConfig, NetClient, NetConfig, NetServer};
use tendax_storage::WalShardStats;

use crate::stats::ClassRecorder;
use crate::workload::text_of_words;

/// The op classes of the mixed stream. Labels key the per-class
/// latency families in the JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A typing burst: insert a few words at a position.
    Typing,
    /// Copy a slice of one document, paste it into another.
    Paste,
    /// Re-evaluate a dynamic folder's membership.
    FolderRefresh,
    /// A metadata search over the live corpus.
    Search,
    /// A visual-mining sweep (feature extraction + PCA + k-means).
    Mining,
    /// Define a workflow task on the document and route it to its
    /// assignee's inbox; the assignee completes it.
    Process,
}

impl OpClass {
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Typing => "typing",
            OpClass::Paste => "paste",
            OpClass::FolderRefresh => "folder",
            OpClass::Search => "search",
            OpClass::Mining => "mining",
            OpClass::Process => "process",
        }
    }

    fn tag(self) -> u8 {
        match self {
            OpClass::Typing => 1,
            OpClass::Paste => 2,
            OpClass::FolderRefresh => 3,
            OpClass::Search => 4,
            OpClass::Mining => 5,
            OpClass::Process => 6,
        }
    }
}

/// Relative weights of the op classes. The default mix is typing-heavy
/// with occasional expensive sweeps, roughly what a live editing
/// session looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    pub typing: u32,
    pub paste: u32,
    pub folder: u32,
    pub search: u32,
    pub mining: u32,
    pub process: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix {
            typing: 60,
            paste: 12,
            folder: 8,
            search: 8,
            mining: 2,
            process: 10,
        }
    }
}

impl OpMix {
    fn classes(&self) -> [(OpClass, u32); 6] {
        [
            (OpClass::Typing, self.typing),
            (OpClass::Paste, self.paste),
            (OpClass::FolderRefresh, self.folder),
            (OpClass::Search, self.search),
            (OpClass::Mining, self.mining),
            (OpClass::Process, self.process),
        ]
    }
}

/// Workload shape: everything the generator needs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub users: usize,
    pub docs: usize,
    /// Ops in the schedule.
    pub ops: usize,
    /// Words per typing burst.
    pub burst_words: usize,
    /// Zipf skew of document popularity (`s` in 1/k^s); 0 = uniform.
    pub zipf_s: f64,
    pub seed: u64,
    pub mix: OpMix,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            users: 8,
            docs: 12,
            ops: 400,
            burst_words: 3,
            zipf_s: 1.1,
            seed: 42,
            mix: OpMix::default(),
        }
    }
}

/// One scheduled operation. `a`/`b` are class-specific pre-drawn
/// parameters (positions, lengths, source document), reduced modulo the
/// live state at execution time so the schedule itself never depends on
/// document contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadOp {
    pub user: usize,
    pub doc: usize,
    pub class: OpClass,
    pub a: u64,
    pub b: u64,
    /// Pre-generated burst text (typing ops; empty otherwise).
    pub text: String,
}

/// A generated, digestable op stream.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub config: WorkloadConfig,
    pub ops: Vec<WorkloadOp>,
}

/// FNV-1a, the repo's standard cheap content hash.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Sample an index in `[0, n)` with Zipf weight 1/(k+1)^s via the
/// precomputed cumulative distribution and a binary search.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> ZipfSampler {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty distribution");
        let x = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x)
    }
}

/// Generate the op schedule for `config`. Pure function of the config
/// (including its seed).
pub fn generate(config: &WorkloadConfig) -> Schedule {
    assert!(config.users > 0 && config.docs > 0, "empty workload");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let zipf = ZipfSampler::new(config.docs, config.zipf_s);
    let classes = config.mix.classes();
    let weight_total: u32 = classes.iter().map(|(_, w)| w).sum();
    assert!(weight_total > 0, "all op-mix weights are zero");

    let mut ops = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        let mut pick = rng.gen_range(0..weight_total);
        let class = classes
            .iter()
            .find(|(_, w)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("weights sum to total")
            .0;
        let user = rng.gen_range(0..config.users);
        let doc = zipf.sample(&mut rng);
        let (a, b, text) = match class {
            OpClass::Typing => (
                rng.gen_range(0..1 << 20),
                0,
                text_of_words(&mut rng, config.burst_words.max(1)),
            ),
            // a = paste position, b packs (source doc, copy start, copy
            // len) as independent draws.
            OpClass::Paste => (
                rng.gen_range(0..1 << 20),
                (zipf.sample(&mut rng) as u64) << 32
                    | rng.gen_range(0..1u64 << 16) << 8
                    | rng.gen_range(3..16u64),
                String::new(),
            ),
            // a = term index for search; assignee draw for process.
            OpClass::Search => (rng.gen_range(0..1 << 16), 0, String::new()),
            OpClass::Process => (rng.gen_range(0..config.users as u64), 0, String::new()),
            OpClass::FolderRefresh | OpClass::Mining => (0, 0, String::new()),
        };
        ops.push(WorkloadOp {
            user,
            doc,
            class,
            a,
            b,
            text,
        });
    }
    Schedule {
        config: config.clone(),
        ops,
    }
}

impl Schedule {
    /// FNV-1a hash over the canonical encoding of every op (and the
    /// shape parameters): the reproducibility receipt. Two runs with
    /// the same digest executed the same op stream.
    pub fn digest(&self) -> u64 {
        let c = &self.config;
        let mut h = FNV_OFFSET;
        for v in [
            c.users as u64,
            c.docs as u64,
            c.ops as u64,
            c.burst_words as u64,
            c.zipf_s.to_bits(),
            c.seed,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
        for op in &self.ops {
            h = fnv1a(h, &[op.class.tag()]);
            h = fnv1a(h, &(op.user as u64).to_le_bytes());
            h = fnv1a(h, &(op.doc as u64).to_le_bytes());
            h = fnv1a(h, &op.a.to_le_bytes());
            h = fnv1a(h, &op.b.to_le_bytes());
            h = fnv1a(h, op.text.as_bytes());
        }
        h
    }
}

/// What one driver run produced.
#[derive(Debug)]
pub struct RunReport {
    /// `inproc` or `tcp`.
    pub mode: &'static str,
    pub schedule_digest: u64,
    /// FNV-1a over every document's final text: the convergence
    /// receipt. Same seed + same mode ⇒ same value.
    pub doc_digest: u64,
    pub ops: u64,
    pub wall: Duration,
    /// Per-op-class latency (labelled by [`OpClass::label`]).
    pub classes: ClassRecorder,
    /// Storage-engine counter deltas over the run.
    pub commits: u64,
    pub txns_begun: u64,
    /// Commit retries the editors' retry loops recorded, all sessions
    /// (in-process editors, or the server side of the connections).
    pub collab_retries: u64,
    /// TCP runs only: the server's counters and the process's peak
    /// thread count observed during the run.
    pub net: Option<tendax_net::NetServerStats>,
    pub threads: Option<u64>,
    /// The WAL's flush counters at the end of the run. Only present for
    /// durable fixtures (see [`build_fixture`]); the default in-memory
    /// fixture has no WAL.
    pub wal: Option<WalShardStats>,
}

impl RunReport {
    pub fn throughput_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn collab_retries(corpus: &Corpus) -> u64 {
    let server = corpus.tendax.server();
    server.retries_by_session().values().sum()
}

/// The fixture both drivers build: same creation order ⇒ same ids.
struct Corpus {
    tendax: Tendax,
    users: Vec<UserId>,
    docs: Vec<DocId>,
}

/// `TENDAX_LANPARTY_DURABILITY=fsync|buffered|none` swaps the bench
/// fixture from in-memory to a file-backed WAL at that durability level,
/// turning a run into a WAL-receipt generator.
fn durable_fixture_level() -> Option<DurabilityLevel> {
    match std::env::var("TENDAX_LANPARTY_DURABILITY")
        .ok()?
        .to_ascii_lowercase()
        .as_str()
    {
        "fsync" => Some(DurabilityLevel::Fsync),
        "buffered" => Some(DurabilityLevel::Buffered),
        "none" => Some(DurabilityLevel::None),
        _ => None,
    }
}

fn build_fixture(config: &WorkloadConfig) -> Corpus {
    let tendax = match durable_fixture_level() {
        Some(durability) => {
            // Each driver gets a fresh log file; the OS temp dir is the
            // same scratch space the micro-benches use.
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!("tendax-lanparty-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("bench tmp dir");
            let path = dir.join(format!(
                "fixture-{}.wal",
                SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let _ = std::fs::remove_file(&path);
            Tendax::open(
                &path,
                Options {
                    durability,
                    ..Options::default()
                },
            )
            .expect("durable instance")
        }
        None => Tendax::in_memory().expect("in-memory instance"),
    };
    let users: Vec<UserId> = (0..config.users)
        .map(|i| tendax.create_user(&format!("user{i}")).expect("user"))
        .collect();
    let docs: Vec<DocId> = (0..config.docs)
        .map(|d| {
            tendax
                .create_document(&format!("doc{d:04}"), users[d % users.len()])
                .expect("doc")
        })
        .collect();
    Corpus {
        tendax,
        users,
        docs,
    }
}

/// Snapshot the corpus database's WAL counters (`None` for the
/// in-memory fixture, which has no WAL).
fn wal_receipt(corpus: &Corpus) -> Option<WalShardStats> {
    let db = corpus.tendax.textdb().database();
    db.wal_shard_stats().into_iter().next()
}

/// Hash every document's final text (fresh handles, so the database —
/// not any session's view — is the source of truth).
fn doc_digest(corpus: &Corpus) -> u64 {
    let mut h = FNV_OFFSET;
    for &doc in &corpus.docs {
        let handle = corpus
            .tendax
            .textdb()
            .open(doc, corpus.users[0])
            .expect("open for digest");
        h = fnv1a(h, handle.text().as_bytes());
        h = fnv1a(h, b"\x00");
    }
    h
}

/// The search vocabulary: same word list the typing bursts draw from,
/// indexed by the op's pre-drawn `a`.
fn search_term(a: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(a);
    text_of_words(&mut rng, 1)
}

/// Run the metadata portion of an op (shared by both drivers; these
/// services live server-side either way).
struct MetaServices {
    engine: SearchEngine,
    folder_watch: tendax_core::FolderSet,
}

fn meta_services(corpus: &Corpus) -> MetaServices {
    let folder = corpus
        .tendax
        .folders()
        .create_folder(
            "lan-party-hot",
            corpus.users[0],
            FolderRule::ContentContains("database".into()),
        )
        .expect("folder");
    let folder_watch = corpus.tendax.folders().watch(folder).expect("watch");
    let engine = corpus.tendax.search().expect("search engine");
    MetaServices {
        engine,
        folder_watch,
    }
}

/// Execute a metadata op. Returns true if it ran (for op accounting).
fn run_meta_op(corpus: &Corpus, meta: &mut MetaServices, op: &WorkloadOp) {
    match op.class {
        OpClass::FolderRefresh => {
            meta.folder_watch.refresh().expect("folder refresh");
        }
        OpClass::Search => {
            let doc = corpus.docs[op.doc];
            meta.engine.update_document(doc).expect("index update");
            meta.engine
                .search(&SearchQuery::terms(&search_term(op.a)).limit(10))
                .expect("search");
        }
        OpClass::Mining => {
            corpus
                .tendax
                .document_space(4.min(corpus.docs.len()))
                .expect("document space");
        }
        OpClass::Process => {
            let doc = corpus.docs[op.doc];
            let by = corpus.users[op.user];
            let assignee = corpus.users[(op.a as usize) % corpus.users.len()];
            let task = corpus
                .tendax
                .process()
                .define_task(doc, by, TaskSpec::new("review", Assignee::User(assignee)))
                .expect("define task");
            // Route: the assignee finds it in their inbox and completes.
            let inbox = corpus.tendax.process().inbox(assignee).expect("inbox");
            assert!(inbox.iter().any(|t| t.id == task), "task not routed");
            corpus
                .tendax
                .process()
                .complete(task, assignee, "done")
                .expect("complete");
        }
        OpClass::Typing | OpClass::Paste => unreachable!("text op routed to meta"),
    }
}

/// Drive the schedule through in-process editor sessions on the bus.
pub fn run_in_process(schedule: &Schedule) -> RunReport {
    let corpus = build_fixture(&schedule.config);
    let sessions: Vec<_> = (0..schedule.config.users)
        .map(|i| {
            corpus
                .tendax
                .connect(&format!("user{i}"), Platform::Linux)
                .expect("connect")
        })
        .collect();
    let mut meta = meta_services(&corpus);
    let stats0 = corpus.tendax.stats();

    // Editors are opened lazily per (user, doc) and cached — the demo's
    // "everyone has their windows open" steady state.
    let mut editors: HashMap<(usize, usize), EditorDoc> = HashMap::new();
    let mut classes = ClassRecorder::new();
    let start = Instant::now();
    for op in &schedule.ops {
        let t0 = Instant::now();
        match op.class {
            OpClass::Typing => {
                let ed = open_editor(&mut editors, &sessions, &corpus, op.user, op.doc);
                ed.sync();
                let pos = (op.a as usize) % (ed.len() + 1);
                ed.type_text(pos, &op.text).expect("typing burst");
            }
            OpClass::Paste => {
                let (src, start_draw, len_draw) = unpack_paste(op.b);
                let src_idx = src % schedule.config.docs;
                let clip = {
                    // Copy from a fresh read view of the source doc.
                    let hs = corpus
                        .tendax
                        .textdb()
                        .open(corpus.docs[src_idx], corpus.users[op.user])
                        .expect("open src");
                    if hs.len() < 2 {
                        None
                    } else {
                        let start = start_draw % (hs.len() - 1);
                        let len = (len_draw % (hs.len() - start)).max(1);
                        Some(hs.copy(start, len).expect("copy"))
                    }
                };
                if let Some(clip) = clip {
                    let ed = open_editor(&mut editors, &sessions, &corpus, op.user, op.doc);
                    ed.sync();
                    let pos = (op.a as usize) % (ed.len() + 1);
                    ed.paste(pos, &clip).expect("paste");
                }
            }
            _ => run_meta_op(&corpus, &mut meta, op),
        }
        classes.record(op.class.label(), t0.elapsed());
    }
    let wall = start.elapsed();
    // Every session drains its queue so the bus is quiescent before the
    // digest reads the database.
    for ed in editors.values_mut() {
        ed.sync();
    }
    let stats1 = corpus.tendax.stats();
    RunReport {
        mode: "inproc",
        schedule_digest: schedule.digest(),
        doc_digest: doc_digest(&corpus),
        ops: schedule.ops.len() as u64,
        wall,
        classes,
        commits: stats1.commits - stats0.commits,
        txns_begun: stats1.txns_begun - stats0.txns_begun,
        collab_retries: collab_retries(&corpus),
        net: None,
        threads: None,
        wal: wal_receipt(&corpus),
    }
}

fn open_editor<'a>(
    editors: &'a mut HashMap<(usize, usize), EditorDoc>,
    sessions: &[tendax_core::EditorSession],
    corpus: &Corpus,
    user: usize,
    doc: usize,
) -> &'a mut EditorDoc {
    editors.entry((user, doc)).or_insert_with(|| {
        sessions[user]
            .open_id(corpus.docs[doc])
            .expect("open editor")
    })
}

fn unpack_paste(b: u64) -> (usize, usize, usize) {
    (
        (b >> 32) as usize,
        ((b >> 8) & 0xFFFF) as usize,
        (b & 0xFF) as usize,
    )
}

/// Current thread count of this process (Linux; 0 if unreadable).
pub fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Drive the schedule over the TCP transport: one [`NetClient`] per
/// user on loopback, mirrors kept in lockstep after every committed
/// edit (so positions resolve deterministically), metadata ops executed
/// server-side.
pub fn run_tcp(schedule: &Schedule) -> RunReport {
    let corpus = build_fixture(&schedule.config);
    let server = NetServer::bind(
        "127.0.0.1:0",
        corpus.tendax.server().clone(),
        NetConfig::default(),
    )
    .expect("bind lan-party server");
    let addr = server.local_addr();
    let clients: Vec<NetClient> = (0..schedule.config.users)
        .map(|i| {
            NetClient::connect_with(addr, &format!("user{i}"), ClientConfig::default())
                .expect("connect client")
        })
        .collect();
    let mut meta = meta_services(&corpus);
    let stats0 = corpus.tendax.stats();

    // (user, doc) -> wire doc id, subscribed lazily; per-doc subscriber
    // list for the post-edit convergence barrier.
    let mut subs: HashMap<(usize, usize), u64> = HashMap::new();
    let mut watchers: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut classes = ClassRecorder::new();
    let mut peak_threads = process_threads();
    let start = Instant::now();
    for op in &schedule.ops {
        let t0 = Instant::now();
        match op.class {
            OpClass::Typing | OpClass::Paste => {
                let doc_id = subscribe(&mut subs, &mut watchers, &clients, op.user, op.doc);
                let client = &clients[op.user];
                let text = match op.class {
                    OpClass::Typing => Some(op.text.clone()),
                    // The wire protocol carries insert/delete only:
                    // paste is rendered as an insert of the copied
                    // mirror slice (lineage is an in-process feature).
                    OpClass::Paste => {
                        let (src, start_draw, len_draw) = unpack_paste(op.b);
                        let src_idx = src % schedule.config.docs;
                        let src_id =
                            subscribe(&mut subs, &mut watchers, &clients, op.user, src_idx);
                        let src_text = client.text(src_id).expect("mirror text");
                        let chars: Vec<char> = src_text.chars().collect();
                        if chars.len() < 2 {
                            None
                        } else {
                            let start = start_draw % (chars.len() - 1);
                            let len = (len_draw % (chars.len() - start)).max(1);
                            Some(chars[start..start + len].iter().collect())
                        }
                    }
                    _ => unreachable!(),
                };
                if let Some(text) = text {
                    let mirror_len = client.text(doc_id).map_or(0, |t| t.chars().count());
                    let pos = (op.a as usize) % (mirror_len + 1);
                    let (_, ts) = client
                        .insert(doc_id, pos, &text)
                        .expect("insert over the wire");
                    // Convergence barrier: every subscribed mirror sees
                    // this commit before the next op — the determinism
                    // contract (and a realistic "everyone's screen
                    // updated" latency measure).
                    for &w in watchers.get(&op.doc).expect("watchers") {
                        assert!(
                            clients[w].wait_synced(doc_id, ts, Duration::from_secs(30)),
                            "mirror of user{w} never converged"
                        );
                    }
                }
            }
            _ => run_meta_op(&corpus, &mut meta, op),
        }
        classes.record(op.class.label(), t0.elapsed());
        peak_threads = peak_threads.max(process_threads());
    }
    let wall = start.elapsed();
    let stats1 = corpus.tendax.stats();
    let net = server.stats();
    drop(clients);
    drop(server);
    RunReport {
        mode: "tcp",
        schedule_digest: schedule.digest(),
        doc_digest: doc_digest(&corpus),
        ops: schedule.ops.len() as u64,
        wall,
        classes,
        commits: stats1.commits - stats0.commits,
        txns_begun: stats1.txns_begun - stats0.txns_begun,
        collab_retries: collab_retries(&corpus),
        net: Some(net),
        threads: Some(peak_threads),
        wal: wal_receipt(&corpus),
    }
}

fn subscribe(
    subs: &mut HashMap<(usize, usize), u64>,
    watchers: &mut HashMap<usize, Vec<usize>>,
    clients: &[NetClient],
    user: usize,
    doc: usize,
) -> u64 {
    if let Some(&id) = subs.get(&(user, doc)) {
        return id;
    }
    let id = clients[user]
        .subscribe(&format!("doc{doc:04}"))
        .expect("subscribe");
    subs.insert((user, doc), id);
    watchers.entry(doc).or_default().push(user);
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadConfig {
        WorkloadConfig {
            users: 3,
            docs: 4,
            ops: 40,
            seed: 7,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule_and_digest() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seed_different_digest() {
        let a = generate(&small());
        let b = generate(&WorkloadConfig { seed: 8, ..small() });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn zipf_skews_toward_low_indices() {
        let cfg = WorkloadConfig {
            ops: 2_000,
            ..small()
        };
        let s = generate(&cfg);
        let hot = s.ops.iter().filter(|o| o.doc == 0).count();
        let cold = s.ops.iter().filter(|o| o.doc == cfg.docs - 1).count();
        assert!(
            hot > 2 * cold.max(1),
            "doc 0 ({hot}) should dominate doc {} ({cold})",
            cfg.docs - 1
        );
    }

    #[test]
    fn mix_covers_all_classes() {
        let s = generate(&WorkloadConfig {
            ops: 2_000,
            ..small()
        });
        for class in [
            OpClass::Typing,
            OpClass::Paste,
            OpClass::FolderRefresh,
            OpClass::Search,
            OpClass::Mining,
            OpClass::Process,
        ] {
            assert!(
                s.ops.iter().any(|o| o.class == class),
                "{class:?} never generated"
            );
        }
    }

    #[test]
    fn in_process_run_executes_all_ops() {
        let s = generate(&small());
        let r = run_in_process(&s);
        assert_eq!(r.ops, 40);
        assert!(r.commits > 0);
        assert!(r.txns_begun >= r.commits);
        assert_ne!(r.doc_digest, 0);
        assert!(r.throughput_per_s() > 0.0);
    }
}
