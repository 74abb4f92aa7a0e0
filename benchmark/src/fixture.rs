//! What every workload stands on: the clock, scratch directories, the
//! pre-populated corpus and the loopback server with its two clients.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tendax_core::{DocId, DurabilityLevel, Options, Tendax, UserId};
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_storage::{ColdOptions, Vfs};

use crate::calib::{factor_around, Calib};
use crate::record::OneOff;
use crate::rng::Rng;
use crate::schedule::words_text;

/// Nanoseconds since the process's first reading.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `benchmark/out/`: span files and per-run scratch data, all ignored
/// by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory for this process under `benchmark/out/`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir()
        .join(format!("run-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
    dir
}

/// Remove this process's scratch data (span files stay).
pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(out_dir().join(format!("run-{}", std::process::id())));
}

/// Bytes of every regular file below `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Resident set of this process right now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:").unwrap_or(0) as f64 / 1024.0
}

pub fn thread_count() -> u64 {
    proc_status_kb("Threads:").unwrap_or(0)
}

/// Wait until server and client threads of a dropped fixture are gone,
/// so a reopen never shares the files with a dying connection thread.
pub fn wait_for_threads(at_most: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() > at_most && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------- corpus

#[derive(Debug, Clone)]
pub struct CorpusCfg {
    pub durability: DurabilityLevel,
    /// Cold tier on, with the default 4 096-version memtable budget.
    pub cold: bool,
    pub users: usize,
    /// Initial visible length of each document.
    pub doc_lens: Vec<usize>,
    /// Copy-pastes between neighbouring documents during set-up, so
    /// lineage starts from a web instead of from nothing. They replace
    /// typed characters one for one: lengths stay as configured.
    pub paste_web: usize,
}

impl CorpusCfg {
    /// `Options::default()` with the `TENDAX_*` switches read as unset
    /// (main removes them from the environment): group commit on, one
    /// WAL file, no maintenance thread.
    pub fn options(&self, vfs: Option<Arc<dyn Vfs>>) -> Options {
        let mut o = Options {
            durability: self.durability,
            cold_storage: self.cold.then(ColdOptions::default),
            ..Options::default()
        };
        if let Some(vfs) = vfs {
            o.vfs = vfs;
        }
        o
    }
}

/// A populated database and what the driver knows about it.
#[derive(Debug)]
pub struct Corpus {
    pub tx: Tendax,
    pub users: Vec<UserId>,
    pub docs: Vec<DocId>,
    pub names: Vec<String>,
    /// Document texts as set-up left them: the model's starting point.
    pub texts: Vec<String>,
    /// Bytes of user text put in so far (typed and pasted).
    pub user_bytes: u64,
    pub wal_path: PathBuf,
}

pub fn user_name(i: usize) -> String {
    format!("user{i}")
}

/// Build the corpus: same seed, same bytes, same ids.
pub fn build_corpus(
    cfg: &CorpusCfg,
    seed: u64,
    wal_path: &Path,
    vfs: Option<Arc<dyn Vfs>>,
) -> Corpus {
    let tx = Tendax::open(wal_path, cfg.options(vfs)).expect("open the workload's database");
    let users: Vec<UserId> = (0..cfg.users)
        .map(|i| tx.create_user(&user_name(i)).expect("create user"))
        .collect();
    let mut rng = Rng::fork(seed, 3);
    let mut docs = Vec::new();
    let mut names = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    let mut user_bytes = 0u64;
    for (d, &len) in cfg.doc_lens.iter().enumerate() {
        let name = format!("doc{d:04}");
        let owner = users[d % users.len()];
        let id = tx.create_document(&name, owner).expect("create document");
        let mut text = words_text(&mut rng, len);
        let mut handle = tx.textdb().open(id, owner).expect("open new document");
        // Every `paste_web`-th document takes its head from its
        // predecessor by copy-paste instead of by typing.
        let pasted = if cfg.paste_web > 0 && d > 0 && d % cfg.paste_web == 0 && len >= 64 {
            let src = tx
                .textdb()
                .open(docs[d - 1], owner)
                .expect("open paste source");
            let n = 32.min(src.len());
            let clip = src.copy(0, n).expect("copy for the paste web");
            handle.paste(0, &clip).expect("paste for the paste web");
            text.replace_range(0..n, &texts[d - 1][0..n]);
            n
        } else {
            0
        };
        for chunk in text.as_bytes()[pasted..].chunks(512) {
            let at = handle.len();
            let s = std::str::from_utf8(chunk).expect("corpus text is ASCII");
            handle.insert_text(at, s).expect("populate document");
        }
        user_bytes += text.len() as u64;
        docs.push(id);
        names.push(name);
        texts.push(text);
    }
    Corpus {
        tx,
        users,
        docs,
        names,
        texts,
        user_bytes,
        wal_path: wal_path.to_path_buf(),
    }
}

/// Every document read back through a fresh `TextDb::open`.
fn read_texts(tx: &Tendax, user: UserId, docs: &[DocId]) -> Vec<String> {
    docs.iter()
        .map(|&d| {
            tx.textdb()
                .open(d, user)
                .map(|h| h.text())
                .unwrap_or_else(|e| format!("<open failed: {e}>"))
        })
        .collect()
}

impl Corpus {
    pub fn fresh_texts(&self) -> Vec<String> {
        read_texts(&self.tx, self.users[0], &self.docs)
    }
}

/// Reopen the database at `wal_path` and read every document back.
/// Returns the open time in seconds, the instance and the texts.
pub fn reopen(
    cfg: &CorpusCfg,
    wal_path: &Path,
    vfs: Option<Arc<dyn Vfs>>,
    docs: &[DocId],
) -> (f64, Tendax, Vec<String>) {
    let t0 = now_ns();
    let tx = Tendax::open(wal_path, cfg.options(vfs)).expect("reopen the workload's database");
    let secs = (now_ns() - t0) as f64 / 1e9;
    let user = tx
        .textdb()
        .user_by_name(&user_name(0))
        .expect("user0 survives a reopen");
    let texts = read_texts(&tx, user, docs);
    (secs, tx, texts)
}

// ------------------------------------------------------------ TCP fixture

/// The corpus behind a loopback server with clients A and B, both
/// subscribed to every document. Field order is drop order: clients,
/// then the server, then the database.
#[derive(Debug)]
pub struct TcpFixture {
    pub clients: [NetClient; 2],
    pub server: NetServer,
    /// Wire id of each document (the same for both clients).
    pub ids: Vec<u64>,
    pub corpus: Corpus,
}

pub fn build_tcp(cfg: &CorpusCfg, seed: u64, wal_path: &Path) -> TcpFixture {
    let corpus = build_corpus(cfg, seed, wal_path, None);
    let server = NetServer::bind(
        "127.0.0.1:0",
        corpus.tx.server().clone(),
        NetConfig::default(),
    )
    .expect("bind the loopback server");
    let connect = |i: usize| {
        NetClient::connect(server.local_addr(), &user_name(i)).expect("connect a client")
    };
    let clients = [connect(0), connect(1)];
    let mut ids = Vec::new();
    for name in &corpus.names {
        let a = clients[0].subscribe(name).expect("client A subscribes");
        let b = clients[1].subscribe(name).expect("client B subscribes");
        assert_eq!(a, b, "both clients see one wire id per document");
        ids.push(a);
    }
    TcpFixture {
        clients,
        server,
        ids,
        corpus,
    }
}

/// Time `build` `times` times, keeping only the last result; every
/// earlier one is dropped (and its threads waited for) before the next
/// starts. The calibration bursts before and after each give that
/// repetition's machine factor.
pub fn timed_setups<T>(
    times: usize,
    calib: &mut Calib,
    mut build: impl FnMut(usize) -> T,
) -> (OneOff, T) {
    let idle_threads = thread_count();
    let mut setups = OneOff::default();
    let mut last = None;
    let mut before = calib.burst();
    for i in 0..times {
        drop(last.take());
        wait_for_threads(idle_threads);
        let t0 = now_ns();
        last = Some(build(i));
        let secs = (now_ns() - t0) as f64 / 1e9;
        let after = calib.burst();
        setups.push(secs, factor_around(&before, &after));
        before = after;
    }
    (setups, last.expect("at least one set-up"))
}
