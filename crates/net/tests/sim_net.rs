//! The first `sim_net` seed: a whole LAN in one thread.
//!
//! A [`Hub`] on an in-memory database, two [`Conn`]s and two
//! [`ClientCore`]s, and no socket, clock or second thread. Each
//! connection is two byte pipes, client to server and back, FIFO as in
//! TCP. A seeded schedule picks what moves next: a client sends its next
//! request (the handshake, a subscription, an insert or a delete; at most
//! one outstanding per client), a connection drains its queue, or a pipe
//! delivers its bytes up to a seeded cut point. Commits, the publish hook
//! and the fan-out all run on this thread, so a schedule is replayed
//! exactly.
//!
//! At quiescence every mirror equals a fresh load of its document, every
//! request has had exactly one answer, and every mirror's frontier covers
//! the last commit acknowledged on its document. The default run sweeps
//! 32 seeds, each twice, and compares the digests of the frames
//! delivered; `TENDAX_SIM_SEED=<n> cargo test -p tendax-net --test
//! sim_net` replays one.

use std::collections::HashMap;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_collab::CollabServer;
use tendax_net::{ClientCore, Conn, EditOp, Frame, FrameBuffer, Hub, NetConfig, Step};
use tendax_text::{TextDb, UserId};

const USERS: [&str; 2] = ["alice", "bob"];
const DOCS: [&str; 2] = ["minutes", "agenda"];
/// Edits each client makes once subscribed to both documents.
const EDITS: usize = 40;

/// The seeds to sweep. `TENDAX_SIM_SEED=<n>` narrows the sweep to one
/// schedule; the default covers 32.
fn seeds() -> Vec<u64> {
    match std::env::var("TENDAX_SIM_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("TENDAX_SIM_SEED must be an integer, got {s:?}"))],
        Err(_) => (0..32).collect(),
    }
}

/// FNV-1a over everything delivered, in delivery order.
struct Digest(u64);

impl Digest {
    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// One client, its connection, and the pipes between them.
struct Site {
    core: ClientCore,
    conn: Conn,
    /// Bytes sent by the client, not yet delivered to the server.
    up: Vec<u8>,
    /// Bytes drained by the server, not yet delivered to the client.
    down: Vec<u8>,
    at_server: FrameBuffer,
    at_client: FrameBuffer,
    /// Requests of the script sent so far.
    sent: usize,
    /// The request waiting for its answer.
    outstanding: Option<u64>,
    /// Answers received, per request id.
    answers: HashMap<u64, u32>,
    /// Subscribed document ids.
    docs: Vec<u64>,
    /// The document of each edit request.
    edits: HashMap<u64, u64>,
}

impl Site {
    fn new(hub: &Hub) -> Site {
        Site {
            core: ClientCore::default(),
            conn: Conn::new(hub),
            up: Vec::new(),
            down: Vec::new(),
            at_server: FrameBuffer::default(),
            at_client: FrameBuffer::default(),
            sent: 0,
            outstanding: None,
            answers: HashMap::new(),
            docs: Vec::new(),
            edits: HashMap::new(),
        }
    }

    fn done(&self) -> bool {
        self.sent == 1 + DOCS.len() + EDITS && self.outstanding.is_none()
    }

    /// Send site `i`'s next request: `Hello`, a subscription to each
    /// document, then edits at seeded positions of the mirror.
    fn send_next(&mut self, seed: u64, i: usize, rng: &mut SmallRng) {
        let (id, bytes) = match self.sent {
            0 => (0, self.core.hello(USERS[i], "Linux", "")),
            n if n <= DOCS.len() => {
                let name = DOCS[(n - 1 + i) % DOCS.len()].to_string();
                self.core
                    .request(|request| Frame::Subscribe { request, name })
            }
            _ => {
                let doc = self.docs[rng.gen_range(0..self.docs.len())];
                let mirror = self.core.mirror(doc);
                let mirror = mirror.unwrap_or_else(|| panic!("seed {seed}: site {i}: no mirror"));
                let len = mirror.len() as u64;
                let op = if len > 0 && rng.gen_bool(0.3) {
                    let pos = rng.gen_range(0..len);
                    let len = rng.gen_range(1..=(len - pos).min(3));
                    EditOp::Delete { pos, len }
                } else {
                    let pos = rng.gen_range(0..=len);
                    let text = (0..rng.gen_range(1..4))
                        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                        .collect();
                    EditOp::Insert { pos, text }
                };
                let (id, bytes) = self
                    .core
                    .request(|request| Frame::Edit { request, doc, op });
                self.edits.insert(id, doc);
                (id, bytes)
            }
        };
        self.up.extend_from_slice(&bytes);
        self.sent += 1;
        self.outstanding = Some(id);
    }
}

/// Move a seeded prefix of `pipe` into `buf`: bytes arrive in order, cut
/// anywhere.
fn deliver(pipe: &mut Vec<u8>, buf: &mut FrameBuffer, rng: &mut SmallRng) {
    let n = rng.gen_range(1..=pipe.len());
    buf.extend(&pipe[..n]);
    pipe.drain(..n);
}

/// What a finished run leaves to check.
struct Run {
    digest: u64,
    sites: Vec<Site>,
    collab: CollabServer,
    users: Vec<UserId>,
    /// The newest `commit_ts` acknowledged on each document.
    acked: HashMap<u64, u64>,
}

fn run(seed: u64) -> Run {
    let textdb = TextDb::in_memory();
    let users: Vec<UserId> = USERS.map(|u| textdb.create_user(u).unwrap()).into();
    for name in DOCS {
        textdb.create_document(name, users[0]).unwrap();
    }
    let collab = CollabServer::new(textdb);
    let hub = Hub::new(collab.clone(), NetConfig::default());
    let mut sites: Vec<Site> = USERS.iter().map(|_| Site::new(&hub)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for step in 0.. {
        assert!(step < 1_000_000, "seed {seed}: no quiescence");
        let i = rng.gen_range(0..sites.len());
        let site = &mut sites[i];
        match rng.gen_range(0..4) {
            0 if site.outstanding.is_none() && !site.done() => site.send_next(seed, i, &mut rng),
            1 if !site.up.is_empty() => {
                deliver(&mut site.up, &mut site.at_server, &mut rng);
                while let Some((tag, payload)) = site
                    .at_server
                    .next_frame()
                    .unwrap_or_else(|e| panic!("seed {seed}: site {i}: {e}"))
                {
                    digest.add(&[i as u8, 0, tag]);
                    digest.add(payload);
                    let frame = Frame::decode(tag, payload)
                        .unwrap_or_else(|e| panic!("seed {seed}: site {i}: {e}"));
                    let step = site.conn.on_frame(&hub, frame);
                    assert_eq!(step, Step::Ready, "seed {seed}: site {i}");
                }
            }
            2 => {
                assert!(site.conn.drain(&hub, &mut out), "seed {seed}: site {i}");
                out.drain(..).for_each(|f| site.down.extend_from_slice(&f));
            }
            3 if !site.down.is_empty() => {
                deliver(&mut site.down, &mut site.at_client, &mut rng);
                while let Some((tag, payload)) = site
                    .at_client
                    .next_frame()
                    .unwrap_or_else(|e| panic!("seed {seed}: site {i}: {e}"))
                {
                    digest.add(&[i as u8, 1, tag]);
                    digest.add(payload);
                    for done in site.core.on_frame(tag, payload) {
                        let ctx = format!("seed {seed}: site {i}, request {}", done.id);
                        *site.answers.entry(done.id).or_default() += 1;
                        assert_eq!(site.outstanding.take(), Some(done.id), "{ctx}");
                        match done.reply {
                            Ok(Frame::Welcome { .. } | Frame::EditRejected { .. }) => {}
                            Ok(Frame::Snapshot { doc, .. }) => site.docs.push(doc),
                            Ok(Frame::EditOk { commit_ts, .. }) => {
                                let last = acked.entry(site.edits[&done.id]).or_default();
                                *last = (*last).max(commit_ts);
                            }
                            other => panic!("{ctx}: answered {other:?}"),
                        }
                    }
                }
            }
            _ => {}
        }
        if sites
            .iter()
            .all(|s| s.done() && s.up.is_empty() && s.down.is_empty())
        {
            // Quiet on the wire: over once no connection has anything
            // left to hand out either.
            let mut idle = true;
            for s in &mut sites {
                assert!(s.conn.drain(&hub, &mut out), "seed {seed}");
                idle &= out.is_empty();
                out.drain(..).for_each(|f| s.down.extend_from_slice(&f));
            }
            if idle {
                break;
            }
        }
    }
    Run {
        digest: digest.0,
        sites,
        collab,
        users,
        acked,
    }
}

fn check(seed: u64, run: &Run) {
    let textdb = run.collab.textdb();
    for name in DOCS {
        let id = textdb.document_by_name(name).unwrap();
        let fresh = textdb.open(id, run.users[0]).unwrap().text();
        let acked = run.acked.get(&id.0).copied().unwrap_or(0);
        for (i, site) in run.sites.iter().enumerate() {
            let ctx = format!("seed {seed}: site {i}, {name}");
            let mirror = site
                .core
                .mirror(id.0)
                .unwrap_or_else(|| panic!("{ctx}: no mirror"));
            assert_eq!(mirror.text(), fresh, "{ctx}: the mirror diverged");
            assert!(
                mirror.synced_ts() >= acked,
                "{ctx}: synced_ts {} below the last acked commit {acked}",
                mirror.synced_ts()
            );
        }
    }
    for (i, site) in run.sites.iter().enumerate() {
        let ids: Vec<u64> = (0..site.sent as u64).collect();
        let mut answered: Vec<u64> = site.answers.keys().copied().collect();
        answered.sort_unstable();
        assert_eq!(answered, ids, "seed {seed}: site {i}: requests answered");
        assert!(
            site.answers.values().all(|&n| n == 1),
            "seed {seed}: site {i}: a request answered twice: {:?}",
            site.answers
        );
    }
}

#[test]
fn two_clients_converge_under_seeded_delivery() {
    for seed in seeds() {
        let first = run(seed);
        check(seed, &first);
        let again = run(seed);
        assert_eq!(
            first.digest, again.digest,
            "seed {seed}: one schedule delivered different frames"
        );
    }
}
