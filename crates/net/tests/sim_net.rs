//! The first `sim_net` seed: a whole LAN in one thread.
//!
//! Two [`Hub`]s on one in-memory database, a [`Conn`] and a
//! [`ClientCore`] on each, and no socket, clock or second thread. Each
//! connection is two byte pipes, client to server and back, FIFO as in
//! TCP. A seeded schedule picks what moves next: a client sends its next
//! request (the handshake, a subscription, then inserts and deletes with
//! a seeded few `Subscribe`s of a subscribed document and `Resync`s among
//! them; at most one outstanding per client), a connection drains its
//! queue, a pipe delivers its bytes up to a seeded cut point, or a
//! connection publishes the edit it holds. Commits, the publish hooks and
//! the fan-out all run on this thread, so a schedule is replayed exactly.
//! Odd seeds send every edit of both clients to one document. Each
//! document starts with `PREFILL` characters, so its live tail holds a
//! stretch of events (as many as encode to its length in bytes).
//!
//! A client also closes a document now and then: it sends `Unsubscribe`,
//! keeps its mirror frozen while the other client makes a seeded stretch
//! of edits to it (some stretches longer than the tail holds), then
//! subscribes again, offering the kept mirror: the answer is a `Delta`
//! from the mirror's frontier, or a snapshot once the tail no longer
//! reaches back to it.
//!
//! The second client is a slow reader: its hub gives its connection a
//! queue of `SLOW_CAPACITY` frames, and the schedule withholds that
//! connection's drains — its writer is stuck on a full socket — for
//! seeded stretches, so events overflow the queue, its streams are lost,
//! and the drain after the stretch recovers them, unasked: with a delta
//! from the newest commit queued on the stream, or a snapshot.
//!
//! The server's shell is played as it runs. An edit's [`Broadcast`] is
//! held — across the other connection's commits, publishes and drains,
//! and every delivery — until a step of its own publishes it, hands out
//! the reply and the echo in one drain, and then hands out each other
//! connection the publication took; meanwhile the connection neither
//! drains nor reads a request (its reader owns the write side). For a
//! seeded quarter of the edits the writer is mid-write instead: the
//! broadcast goes out at once, and the connections it took are handed out
//! right after. A publication takes a connection it queued an event for
//! unless that connection's reader holds an edit, its writer is stuck on a
//! full socket, or (a seeded one in four) its writer is mid-write; such a
//! connection's writer hands it out later. A held edit's event is ready
//! once its reply is queued, so the other connection's publication may
//! carry it first.
//!
//! On the way: no connection hands out one document's events out of
//! commit order, and a `Delta` holds its events in commit order between
//! its `from` and its `synced_ts`; after every `Event` a client applies
//! and every `Delta`, its mirror's text is the document's text as of the
//! mirror's `synced_ts` (the simulator records each document's text after
//! every commit), so `synced_ts` is a frontier; an edit's `EditOk`
//! reaches its client before the edit's own event, inside a `Delta` or
//! not; and it is handed out before any connection's copy of that
//! `Event`, unless its broadcast went out at once or another editor's
//! publication carried it (a `Delta`, like a snapshot, may hold a commit
//! whose reply is still queued elsewhere). At quiescence every mirror
//! equals a fresh load of its document, every request has had exactly one
//! answer, and every mirror's frontier covers the last commit acknowledged
//! on its document. The default run sweeps 32 seeds, each twice, compares
//! the digests of the frames delivered, and needs the sweep to have sent a
//! repeated `Subscribe` and a `Resync`, withheld a drain, recovered a lost
//! stream by a snapshot and by a delta, carried events inside deltas,
//! re-opened a closed document by a delta and by a snapshot, had one
//! editor's publication carry another's event, and had a publication take
//! another connection's write side; `TENDAX_SIM_SEED=<n> cargo
//! test -p tendax-net --test sim_net` replays one.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_collab::CollabServer;
use tendax_net::{
    Broadcast, Bytes, ClientCore, Conn, EditOp, Frame, FrameBuffer, Hub, NetConfig, Step,
};
use tendax_text::{DocId, TextDb, UserId};

const USERS: [&str; 2] = ["alice", "bob"];
const DOCS: [&str; 2] = ["minutes", "agenda"];
/// Requests each client makes once subscribed to both documents: edits,
/// and a seeded few repeated `Subscribe`s, `Resync`s and closes.
const EDITS: usize = 40;
/// Characters each document starts with.
const PREFILL: usize = 250;
/// The longest stretch of edits a closed document waits for: longer than
/// its tail holds.
const STRETCH: usize = 8;
/// The slow reader's outbound queue, in frames.
const SLOW_CAPACITY: usize = 4;
/// The slow reader's site.
const SLOW: usize = 1;

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
    /// The served edit whose broadcast waits for its reply to be handed out.
    held: Option<Broadcast>,
    /// The next `EditOk` handed out is of an edit published at once.
    at_once: bool,
    /// Per document, the newest `Event` handed out.
    newest: HashMap<u64, u64>,
    /// The `commit_ts` of every `Event` the client has received.
    events: HashSet<u64>,
    /// Steps left in the stretch its drains are withheld for.
    stalled: u32,
    /// The document the client has closed, if any, till it re-opens it.
    closed: Option<Closed>,
    /// The `Subscribe` that re-opens a closed document, till answered.
    reopening: Option<u64>,
    /// The ids of the requests sent that expect an answer.
    asked: Vec<u64>,
    /// Each document's id, by name.
    names: HashMap<&'static str, u64>,
}

/// What a site sees of the others when it picks its next request.
struct Others {
    /// Their edits acknowledged so far, per document.
    acked: HashMap<u64, usize>,
    /// Each of them is done, or waits to re-open a document it closed.
    idle: bool,
}

/// A document its client has closed: it re-opens it once the other
/// client's edits acknowledged on it reach `until`, or the other client
/// has no more to make.
struct Closed {
    doc: u64,
    name: &'static str,
    until: usize,
}

impl Site {
    fn new(hub: &Hub, names: HashMap<&'static str, u64>) -> Site {
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
            held: None,
            at_once: false,
            newest: HashMap::new(),
            events: HashSet::new(),
            stalled: 0,
            closed: None,
            reopening: None,
            asked: Vec::new(),
            names,
        }
    }

    fn done(&self) -> bool {
        self.sent == 1 + DOCS.len() + EDITS && self.outstanding.is_none() && self.closed.is_none()
    }

    /// Send site `i`'s next request: `Hello`, a subscription to each
    /// document, then edits at seeded positions of the mirror — of `hot`,
    /// if given, else of a seeded document — and, among them, a seeded few
    /// `Subscribe`s of a subscribed document, `Resync`s and closes of a
    /// document (`hot`, if given). A closed document is subscribed again
    /// once the edits the `others` had acknowledged on it reach its
    /// stretch, or they are idle; till then the site sends nothing.
    fn send_next(
        &mut self,
        seed: u64,
        i: usize,
        hot: Option<u64>,
        rng: &mut SmallRng,
        tally: &mut Tally,
        others: &Others,
    ) {
        if let Some(closed) = &self.closed {
            let made = others.acked.get(&closed.doc).copied().unwrap_or(0);
            if made < closed.until && !others.idle {
                return;
            }
            let name = closed.name.to_string();
            let (id, bytes) = self.core.request(|request| Frame::Subscribe {
                request,
                name,
                resume: None,
            });
            self.closed = None;
            self.reopening = Some(id);
            self.asked.push(id);
            self.up.extend_from_slice(&bytes);
            self.outstanding = Some(id);
            return;
        }
        let (id, bytes) = match self.sent {
            0 => (0, self.core.hello(USERS[i], "Linux", "")),
            n if n <= DOCS.len() => {
                let name = DOCS[(n - 1 + i) % DOCS.len()].to_string();
                self.core.request(|request| Frame::Subscribe {
                    request,
                    name,
                    resume: None,
                })
            }
            _ if rng.gen_range(0..16) == 0 => {
                tally.resubscribes += 1;
                let name = DOCS[rng.gen_range(0..DOCS.len())].to_string();
                self.core.request(|request| Frame::Subscribe {
                    request,
                    name,
                    resume: None,
                })
            }
            _ if rng.gen_range(0..16) == 0 => {
                tally.resyncs += 1;
                let doc = self.docs[rng.gen_range(0..self.docs.len())];
                self.core.request(|request| Frame::Resync { request, doc })
            }
            _ if self.docs.len() == DOCS.len() && rng.gen_range(0..12) == 0 => {
                tally.closes += 1;
                let doc = hot.unwrap_or_else(|| self.docs[rng.gen_range(0..self.docs.len())]);
                let name = DOCS
                    .into_iter()
                    .find(|name| self.names[name] == doc)
                    .expect("a subscribed document has a name");
                let made = others.acked.get(&doc).copied().unwrap_or(0);
                let until = made + rng.gen_range(0..=STRETCH);
                self.docs.retain(|&d| d != doc);
                self.closed = Some(Closed { doc, name, until });
                let (_, bytes) = self.core.request(|_| Frame::Unsubscribe { doc });
                self.up.extend_from_slice(&bytes);
                self.sent += 1;
                return;
            }
            _ => {
                let doc = hot.unwrap_or_else(|| self.docs[rng.gen_range(0..self.docs.len())]);
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
        self.asked.push(id);
    }
}

/// How often the step kinds that start a stream again occurred.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    resubscribes: u64,
    resyncs: u64,
    /// Stretches the slow reader's drains were withheld for.
    stalls: u64,
    /// Unasked snapshots handed out: lost streams recovered.
    recoveries: u64,
    /// Unasked deltas handed out: lost streams recovered from their
    /// frontier.
    delta_recoveries: u64,
    /// Events carried inside deltas.
    delta_events: u64,
    /// Documents closed, and their re-opens answered by a delta and by a
    /// snapshot.
    closes: u64,
    reopen_deltas: u64,
    reopen_snapshots: u64,
    /// Events published by another editor's publication than their own.
    carried: u64,
    /// Connections handed out by a publication that took their write side.
    taken: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.resubscribes += t.resubscribes;
        self.resyncs += t.resyncs;
        self.stalls += t.stalls;
        self.recoveries += t.recoveries;
        self.delta_recoveries += t.delta_recoveries;
        self.delta_events += t.delta_events;
        self.closes += t.closes;
        self.reopen_deltas += t.reopen_deltas;
        self.reopen_snapshots += t.reopen_snapshots;
        self.carried += t.carried;
        self.taken += t.taken;
    }
}

/// When frames left the server, in one order across connections.
#[derive(Default)]
struct Order {
    seq: u64,
    /// Per commit, when its `EditOk` was handed out, and by which site.
    acks: HashMap<u64, (u64, usize)>,
    /// Commits whose broadcast went out at once (the writer was mid-write).
    at_once: HashSet<u64>,
    /// Per commit, when its first `Event` was handed out.
    events: HashMap<u64, u64>,
    /// Per commit, the site whose publication published its event.
    published_by: HashMap<u64, usize>,
    tally: Tally,
}

/// Site `i`'s connection hands out what it has into the pipe to its
/// client; `false` if it had nothing.
fn hand_out(seed: u64, i: usize, site: &mut Site, hub: &Hub, order: &mut Order) -> bool {
    let mut out: Vec<Bytes> = Vec::new();
    assert!(site.conn.drain(hub, &mut out), "seed {seed}: site {i}");
    for bytes in &out {
        let mut buf = FrameBuffer::default();
        buf.extend(bytes);
        let (tag, payload) = buf.next_frame().unwrap().expect("one whole frame");
        order.seq += 1;
        match Frame::decode(tag, payload).unwrap() {
            Frame::EditOk { commit_ts, .. } => {
                order.acks.insert(commit_ts, (order.seq, i));
                if std::mem::take(&mut site.at_once) {
                    order.at_once.insert(commit_ts);
                }
            }
            Frame::EditRejected { .. } => site.at_once = false,
            Frame::Snapshot { request: 0, .. } => order.tally.recoveries += 1,
            Frame::Delta {
                request,
                doc,
                from,
                synced_ts,
                events,
            } => {
                order.tally.delta_recoveries += u64::from(request == 0);
                order.tally.delta_events += events.len() as u64;
                let mut last = from;
                for ev in &events {
                    assert!(
                        ev.doc == doc && last < ev.commit_ts && ev.commit_ts <= synced_ts,
                        "seed {seed}: site {i}: a delta of {doc} from {from} to {synced_ts} holds commit {} of {} after {last}",
                        ev.commit_ts,
                        ev.doc
                    );
                    last = ev.commit_ts;
                }
            }
            Frame::Event(ev) => {
                order.events.entry(ev.commit_ts).or_insert(order.seq);
                let newest = site.newest.entry(ev.doc).or_default();
                assert!(
                    ev.commit_ts > *newest,
                    "seed {seed}: site {i}: commit {} of document {} handed out after commit {newest}",
                    ev.commit_ts,
                    ev.doc
                );
                *newest = ev.commit_ts;
            }
            _ => {}
        }
        site.down.extend_from_slice(bytes);
    }
    !out.is_empty()
}

/// What a publication needs of the run: every hub, the publish hook's
/// log, the schedule.
struct Publishing<'a> {
    hubs: &'a [Arc<Hub>],
    log: &'a Mutex<Vec<u64>>,
    rng: &'a mut SmallRng,
}

impl Publishing<'_> {
    /// Site `i` publishes `broadcast`: note which commits its publication
    /// published, as the publish hook logged them, and return the other
    /// sites whose write sides it took — it queued an event for the
    /// connection (its hub's `events_forwarded` moved), whose reader holds
    /// no edit, whose writer is not stuck on a full socket and, three in
    /// four, not mid-write.
    fn publish(
        &mut self,
        i: usize,
        broadcast: Broadcast,
        others: &[(usize, &mut Site)],
        order: &mut Order,
    ) -> Vec<usize> {
        let forwarded = || -> Vec<u64> {
            let stats = self.hubs.iter().map(|hub| hub.stats());
            stats.map(|s| s.events_forwarded).collect()
        };
        let (before, published) = (forwarded(), self.log.lock().unwrap().len());
        broadcast.publish();
        for &commit in &self.log.lock().unwrap()[published..] {
            order.published_by.insert(commit, i);
        }
        let after = forwarded();
        let mut took = Vec::new();
        for (j, other) in others {
            let free = other.held.is_none() && other.stalled == 0;
            if after[*j] > before[*j] && free && self.rng.gen_bool(0.75) {
                took.push(*j);
            }
        }
        took
    }
}

/// Hand out each of `others` the publication `took`: its queue, as the
/// publisher writes it. (The publisher runs no recovery, but the
/// connection's writer, woken as the publisher lets go, drains next: the
/// same frames in the same order as this one drain.)
fn hand_out_taken(
    seed: u64,
    took: &[usize],
    others: &mut [(usize, &mut Site)],
    hubs: &[Arc<Hub>],
    order: &mut Order,
) {
    for (j, other) in others.iter_mut().filter(|(j, _)| took.contains(j)) {
        order.tally.taken += 1;
        hand_out(seed, *j, other, &hubs[*j], order);
    }
}

/// Site `i`, and the others with their indices.
fn apart(sites: &mut [Site], i: usize) -> (&mut Site, Vec<(usize, &mut Site)>) {
    let (before, rest) = sites.split_at_mut(i);
    let (site, after) = rest.split_first_mut().expect("site i exists");
    let after = after.iter_mut().enumerate().map(|(k, s)| (i + 1 + k, s));
    (site, before.iter_mut().enumerate().chain(after).collect())
}

/// What site `i` sees of the others: the edits acknowledged to them on
/// each document (`acked` per site), and whether all are idle.
fn others_of(sites: &[Site], acked: &[HashMap<u64, usize>], i: usize) -> Others {
    let mut others = Others {
        acked: HashMap::new(),
        idle: true,
    };
    for (j, site) in sites.iter().enumerate().filter(|&(j, _)| j != i) {
        others.idle &= site.done() || site.closed.is_some();
        for (&doc, &n) in &acked[j] {
            *others.acked.entry(doc).or_default() += n;
        }
    }
    others
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
    order: Order,
}

fn run(seed: u64) -> Run {
    let textdb = TextDb::in_memory();
    let users: Vec<UserId> = USERS.map(|u| textdb.create_user(u).unwrap()).into();
    let prefill: String = (0..PREFILL)
        .map(|k| (b'a' + (k % 26) as u8) as char)
        .collect();
    for name in DOCS {
        let doc = textdb.create_document(name, users[0]).unwrap();
        let mut h = textdb.open(doc, users[0]).unwrap();
        h.insert_text(0, &prefill).unwrap();
    }
    let collab = CollabServer::new(textdb);
    // Every commit published, in publication order.
    let published = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&published);
    collab
        .transport()
        .register_publish_hook(Box::new(move |ev| {
            log.lock().unwrap().push(ev.commit_ts);
            true
        }));
    let slow = NetConfig {
        outbound_capacity: SLOW_CAPACITY,
        lag_limit: u64::MAX,
        ..NetConfig::default()
    };
    let hubs = [NetConfig::default(), slow].map(|config| Hub::new(collab.clone(), config));
    let textdb = collab.textdb();
    let hot = (seed % 2 == 1).then(|| textdb.document_by_name(DOCS[0]).unwrap().0);
    // Per document, its text after each commit that changed it.
    let prefilled = textdb.database().last_commit_ts();
    let mut history: HashMap<u64, Vec<(u64, String)>> = DOCS
        .iter()
        .map(|name| {
            (
                textdb.document_by_name(name).unwrap().0,
                vec![(prefilled, prefill.clone())],
            )
        })
        .collect();
    let names: HashMap<&'static str, u64> = DOCS
        .map(|name| (name, textdb.document_by_name(name).unwrap().0))
        .into();
    let mut sites: Vec<Site> = hubs
        .iter()
        .map(|hub| Site::new(hub, names.clone()))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut acked: HashMap<u64, u64> = HashMap::new();
    // Per site, the edits acknowledged on each document.
    let mut edits_acked: Vec<HashMap<u64, usize>> = vec![HashMap::new(); sites.len()];
    let mut order = Order::default();
    for step in 0.. {
        assert!(step < 1_000_000, "seed {seed}: no quiescence");
        let slow = &mut sites[SLOW];
        if slow.stalled > 0 {
            slow.stalled -= 1;
        } else if rng.gen_range(0..64) == 0 {
            slow.stalled = rng.gen_range(16..=256);
            order.tally.stalls += 1;
        }
        let i = rng.gen_range(0..sites.len());
        let kind = rng.gen_range(0..5);
        let others = (kind == 0).then(|| others_of(&sites, &edits_acked, i));
        let (site, mut rest) = apart(&mut sites, i);
        let hub = &hubs[i];
        let mut publishing = Publishing {
            hubs: &hubs,
            log: &published,
            rng: &mut rng,
        };
        match kind {
            0 if site.outstanding.is_none() && !site.done() => {
                let others = others.as_ref().expect("drawn for a send");
                site.send_next(seed, i, hot, publishing.rng, &mut order.tally, others)
            }
            1 if !site.up.is_empty() && site.held.is_none() => {
                deliver(&mut site.up, &mut site.at_server, publishing.rng);
                while let Some((tag, payload)) = site
                    .at_server
                    .next_frame()
                    .unwrap_or_else(|e| panic!("seed {seed}: site {i}: {e}"))
                {
                    digest.add(&[i as u8, 0, tag]);
                    digest.add(payload);
                    let frame = Frame::decode(tag, payload)
                        .unwrap_or_else(|e| panic!("seed {seed}: site {i}: {e}"));
                    let edited = match frame {
                        Frame::Edit { doc, .. } => Some(doc),
                        _ => None,
                    };
                    let edit = edited.is_some();
                    // Full: the replies overfilled the slow reader's queue.
                    let (step, broadcast) = site.conn.on_frame(hub, frame);
                    assert_ne!(step, Step::Closed, "seed {seed}: site {i}");
                    // Only an edit changes a document's text, and only its
                    // own.
                    if let Some(doc) = edited {
                        let text = textdb.document_text(DocId(doc)).unwrap();
                        let texts = history.get_mut(&doc).unwrap();
                        if texts.last().unwrap().1 != text {
                            texts.push((textdb.database().last_commit_ts(), text));
                        }
                    }
                    if edit && publishing.rng.gen_bool(0.75) {
                        site.held = Some(broadcast);
                    } else {
                        site.at_once = edit;
                        let took = publishing.publish(i, broadcast, &rest, &mut order);
                        hand_out_taken(seed, &took, &mut rest, &hubs, &mut order);
                    }
                }
            }
            // The writer: never while the reader owns the write side, or
            // while it is stuck on a full socket.
            2 if site.held.is_none() && site.stalled == 0 => {
                hand_out(seed, i, site, hub, &mut order);
            }
            3 if !site.down.is_empty() => {
                deliver(&mut site.down, &mut site.at_client, publishing.rng);
                while let Some((tag, payload)) = site
                    .at_client
                    .next_frame()
                    .unwrap_or_else(|e| panic!("seed {seed}: site {i}: {e}"))
                {
                    digest.add(&[i as u8, 1, tag]);
                    digest.add(payload);
                    let event = match Frame::decode(tag, payload) {
                        Ok(Frame::Event(ev)) => {
                            site.events.insert(ev.commit_ts);
                            Some(ev.doc)
                        }
                        Ok(Frame::Delta { doc, events, .. }) => {
                            site.events.extend(events.iter().map(|ev| ev.commit_ts));
                            Some(doc)
                        }
                        Ok(Frame::EditOk { commit_ts, .. }) => {
                            assert!(
                                !site.events.contains(&commit_ts),
                                "seed {seed}: site {i}: commit {commit_ts}'s Event came before its EditOk"
                            );
                            None
                        }
                        _ => None,
                    };
                    let completions = site.core.on_frame(tag, payload);
                    if let Some(mirror) = event.and_then(|doc| site.core.mirror(doc)) {
                        let texts = &history[&mirror.doc()];
                        let synced = mirror.synced_ts();
                        let at = texts.iter().rev().find(|(ts, _)| *ts <= synced).unwrap();
                        assert!(
                            !mirror.needs_resync() && mirror.text() == at.1,
                            "seed {seed}: site {i}: after an event or a delta, the mirror of {} at {synced} is not the document at {}",
                            mirror.doc(),
                            at.0
                        );
                    }
                    for done in completions {
                        let ctx = format!("seed {seed}: site {i}, request {}", done.id);
                        *site.answers.entry(done.id).or_default() += 1;
                        assert_eq!(site.outstanding.take(), Some(done.id), "{ctx}");
                        if site.reopening == Some(done.id) {
                            site.reopening = None;
                            match done.reply {
                                Ok(Frame::Delta { .. }) => order.tally.reopen_deltas += 1,
                                _ => order.tally.reopen_snapshots += 1,
                            }
                        }
                        match done.reply {
                            Ok(Frame::Welcome { .. } | Frame::EditRejected { .. }) => {}
                            Ok(Frame::Snapshot { doc, .. } | Frame::Delta { doc, .. })
                                if !site.docs.contains(&doc) =>
                            {
                                site.docs.push(doc)
                            }
                            Ok(Frame::Snapshot { .. }) => {}
                            Ok(Frame::EditOk { commit_ts, .. }) => {
                                let doc = site.edits[&done.id];
                                let last = acked.entry(doc).or_default();
                                *last = (*last).max(commit_ts);
                                *edits_acked[i].entry(doc).or_default() += 1;
                            }
                            other => panic!("{ctx}: answered {other:?}"),
                        }
                    }
                }
            }
            // The reader that served an edit: the broadcast, then the reply
            // and the echo (its writes are stuck as the writer's), then the
            // connections the publication took.
            4 if site.held.is_some() && site.stalled == 0 => {
                let held = site.held.take().unwrap();
                let took = publishing.publish(i, held, &rest, &mut order);
                hand_out(seed, i, site, hub, &mut order);
                hand_out_taken(seed, &took, &mut rest, &hubs, &mut order);
            }
            _ => {}
        }
        if sites
            .iter()
            .all(|s| s.done() && s.held.is_none() && s.up.is_empty() && s.down.is_empty())
        {
            // Quiet on the wire: over once no connection has anything
            // left to hand out either.
            let mut idle = true;
            for (i, s) in sites.iter_mut().enumerate() {
                idle &= !hand_out(seed, i, s, &hubs[i], &mut order);
            }
            if idle {
                break;
            }
        }
    }
    let carried = |(commit, (_, site)): (&u64, &(u64, usize))| {
        order.published_by.get(commit).is_some_and(|by| by != site)
    };
    order.tally.carried = order.acks.iter().filter(|&c| carried(c)).count() as u64;
    Run {
        digest: digest.0,
        sites,
        collab,
        users,
        acked,
        order,
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
    let order = &run.order;
    for (commit, &(ack, site)) in &order.acks {
        let carried = order.published_by.get(commit).is_some_and(|&by| by != site);
        if let (Some(event), false) = (order.events.get(commit), order.at_once.contains(commit)) {
            assert!(
                carried || ack < *event,
                "seed {seed}: commit {commit}'s Event was handed out before its EditOk"
            );
        }
    }
    for (i, site) in run.sites.iter().enumerate() {
        let mut answered: Vec<u64> = site.answers.keys().copied().collect();
        answered.sort_unstable();
        assert_eq!(
            answered, site.asked,
            "seed {seed}: site {i}: requests answered"
        );
        assert!(
            site.answers.values().all(|&n| n == 1),
            "seed {seed}: site {i}: a request answered twice: {:?}",
            site.answers
        );
    }
}

#[test]
fn two_clients_converge_under_seeded_delivery() {
    let mut tally = Tally::default();
    for seed in seeds() {
        let first = run(seed);
        check(seed, &first);
        tally += first.order.tally;
        let again = run(seed);
        assert_eq!(
            first.digest, again.digest,
            "seed {seed}: one schedule delivered different frames"
        );
    }
    if std::env::var("TENDAX_SIM_SEED").is_err() {
        let Tally {
            resubscribes,
            resyncs,
            stalls,
            recoveries,
            delta_recoveries,
            delta_events,
            closes,
            reopen_deltas,
            reopen_snapshots,
            carried,
            taken,
        } = tally;
        assert!(
            [
                resubscribes,
                resyncs,
                stalls,
                recoveries,
                delta_recoveries,
                delta_events,
                closes,
                reopen_deltas,
                reopen_snapshots,
                carried,
                taken
            ]
            .iter()
            .all(|&n| n > 0),
            "a step kind never occurred: {tally:?}"
        );
    }
}
