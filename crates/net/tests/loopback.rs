//! End-to-end tests over real TCP on the loopback interface: the
//! multi-client convergence storm, hostile-input isolation, the
//! slow-consumer policy, and handshake rejection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_collab::CollabServer;
use tendax_net::{
    codes, ClientConfig, Frame, FrameBuffer, NetClient, NetConfig, NetError, NetServer,
    PROTOCOL_VERSION,
};
use tendax_text::{DocId, TextDb};

const WAIT: Duration = Duration::from_secs(30);

/// Build a CollabServer with the given users and documents, serve it on
/// an ephemeral loopback port.
fn serve(users: &[&str], docs: &[&str], config: NetConfig) -> (NetServer, CollabServer) {
    let tdb = TextDb::in_memory();
    let mut creator = None;
    for u in users {
        let id = tdb.create_user(u).unwrap();
        creator.get_or_insert(id);
    }
    for d in docs {
        tdb.create_document(d, creator.expect("at least one user"))
            .unwrap();
    }
    let collab = CollabServer::new(tdb);
    let server = NetServer::bind("127.0.0.1:0", collab.clone(), config).unwrap();
    (server, collab)
}

/// Wait for `client`'s mirror of `doc` to show `want`. A mirror's
/// `synced_ts` is the newest commit it has applied, not a frontier —
/// another connection's older commit can still be on its way (an edit is
/// acknowledged before it is broadcast) — so once every typist is done,
/// equality with the database is awaited, not sampled. A lost event
/// never arrives, and fails the wait.
fn shows(client: &NetClient, doc: u64, want: &str) -> bool {
    let deadline = Instant::now() + WAIT;
    while client.text(doc).as_deref() != Some(want) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A protocol-speaking raw socket, for sending hostile bytes.
struct RawClient {
    stream: TcpStream,
    buf: FrameBuffer,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(WAIT)).unwrap();
        RawClient {
            stream,
            buf: FrameBuffer::default(),
        }
    }

    fn hello(addr: std::net::SocketAddr, user: &str) -> RawClient {
        let mut c = RawClient::connect(addr);
        c.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            user: user.into(),
            platform: "Linux".into(),
            token: String::new(),
        });
        match c.recv().expect("welcome") {
            Frame::Welcome { .. } => c,
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    fn send(&mut self, frame: &Frame) {
        self.stream.write_all(&frame.encode()).unwrap();
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// Next frame, or `None` on clean EOF.
    fn recv(&mut self) -> Option<Frame> {
        let mut scratch = [0u8; 4096];
        loop {
            if let Some((tag, payload)) = self.buf.try_frame().expect("framing") {
                return Some(Frame::decode(tag, &payload).expect("decode"));
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend(&scratch[..n]),
                Err(e) => panic!("raw read: {e}"),
            }
        }
    }

    /// Drain frames until EOF (or error), returning the last one seen.
    fn drain_to_eof(&mut self) -> Option<Frame> {
        let mut last = None;
        let mut scratch = [0u8; 4096];
        loop {
            match self.buf.try_frame() {
                Ok(Some((tag, payload))) => {
                    if let Ok(f) = Frame::decode(tag, &payload) {
                        last = Some(f);
                    }
                    continue;
                }
                Ok(None) => {}
                // Mid-teardown the server may cut a partially written
                // frame; framing errors at that point just end the scan.
                Err(_) => return last,
            }
            match self.stream.read(&mut scratch) {
                Ok(0) | Err(_) => return last,
                Ok(n) => self.buf.extend(&scratch[..n]),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The acceptance storm: 8 clients over real TCP, concurrent edits,
// byte-identical convergence.
// ---------------------------------------------------------------------

#[test]
fn eight_clients_converge_after_concurrent_edit_storm() {
    const CLIENTS: usize = 8;
    const EDITS_PER_CLIENT: usize = 25;

    let users: Vec<String> = (0..CLIENTS).map(|i| format!("user{i}")).collect();
    let user_refs: Vec<&str> = users.iter().map(|s| s.as_str()).collect();
    let (server, collab) = serve(&user_refs, &["storm"], NetConfig::default());
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let user = users[i].clone();
            std::thread::spawn(move || {
                let client = NetClient::connect(addr, &user).unwrap();
                let doc = client.subscribe("storm").unwrap();
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + i as u64);
                let marker = (b'a' + i as u8) as char;
                let mut max_ts = 0u64;
                for _ in 0..EDITS_PER_CLIENT {
                    let len = client.text(doc).map(|t| t.chars().count()).unwrap_or(0);
                    let pos = rng.gen_range(0..=len);
                    let (_, ts) = if len > 4 && rng.gen_range(0..4usize) == 0 {
                        client.delete(doc, pos.min(len - 1), 1).unwrap()
                    } else {
                        let text: String = (0..rng.gen_range(1..4usize)).map(|_| marker).collect();
                        client.insert(doc, pos, &text).unwrap()
                    };
                    max_ts = max_ts.max(ts);
                }
                (client, doc, max_ts)
            })
        })
        .collect();

    let mut clients = Vec::new();
    let mut global_max = 0u64;
    let mut doc = 0u64;
    for h in handles {
        let (c, d, ts) = h.join().expect("client thread");
        global_max = global_max.max(ts);
        doc = d;
        clients.push(c);
    }

    // Every mirror must reach the global frontier…
    let ok: Vec<bool> = clients
        .iter()
        .map(|c| c.wait_synced(doc, global_max, Duration::from_secs(5)))
        .collect();
    if ok.iter().any(|b| !b) {
        let status: Vec<_> = clients.iter().map(|c| c.mirror_status(doc)).collect();
        let seen: Vec<u64> = clients.iter().map(|c| c.events_seen()).collect();
        panic!(
            "not all clients reached ts {global_max}: ok = {ok:?}; mirrors (ts, buffered, resync, applied) = {status:?}; events seen = {seen:?}; server stats = {:?}; bus stats = {:?}",
            server.stats(),
            collab.transport().stats(),
        );
    }

    // …and all nine views (8 mirrors + the database itself) must be
    // byte-identical.
    let user = collab.textdb().user_by_name("user0").unwrap();
    let authoritative = collab.textdb().open(DocId(doc), user).unwrap().text();
    assert!(!authoritative.is_empty());
    for (i, c) in clients.iter().enumerate() {
        assert!(
            shows(c, doc, &authoritative),
            "client {i} diverged from the database"
        );
    }
    // Every edit commits under the document's lock, so no commit of one
    // client overlaps another's: nothing conflicted and nothing merged.
    let stats = collab.textdb().database().stats();
    assert_eq!((stats.conflicts, stats.commits_merged), (0, 0));
}

// ---------------------------------------------------------------------
// Subscribe before snapshot: nothing falls between a subscription's
// snapshot and its event stream, and nothing overtakes the snapshot.
// ---------------------------------------------------------------------

/// Client B closes and re-opens one of two documents while client A
/// (over TCP) and an in-process `EditorSession` both type into both.
/// Every re-open lands in the middle of a burst, so its snapshot has
/// commits racing it on either side; once the burst is over B must reach
/// the last commit through the event stream and show exactly what the
/// database holds. An event that slipped between the registry insert and
/// the snapshot, or went out ahead of the snapshot (B has no mirror to
/// put it in yet), would be missing from B for good.
/// Two typists take turns on one document: alice types after the text
/// bob has typed so far, bob at the head, each without waiting for the
/// other's edit to reach their mirror. Both mirrors end on the
/// database's text, which the turns determine.
#[test]
fn alternating_typists_converge_over_tcp() {
    let (server, collab) = serve(&["alice", "bob"], &["party"], NetConfig::default());
    let addr = server.local_addr();
    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();
    let doc = a.subscribe("party").unwrap();
    assert_eq!(b.subscribe("party").unwrap(), doc);

    for turn in 0..10 {
        a.insert(doc, turn, "a").unwrap();
        b.insert(doc, 0, "b").unwrap();
    }
    let want = collab.textdb().document_text(DocId(doc)).unwrap();
    assert_eq!(want, format!("{}{}", "b".repeat(10), "a".repeat(10)));
    assert!(shows(&a, doc, &want), "alice shows {:?}", a.text(doc));
    assert!(shows(&b, doc, &want), "bob shows {:?}", b.text(doc));
}

#[test]
fn resubscribing_mid_burst_loses_and_reorders_nothing() {
    const ROUNDS: usize = 30;
    const EDITS: usize = 12;
    let names = ["left", "right"];
    let (server, collab) = serve(&["alice", "bob", "carol"], &names, NetConfig::default());
    let addr = server.local_addr();

    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();
    let docs = names.map(|n| a.subscribe(n).unwrap());
    for (n, d) in names.iter().zip(docs) {
        assert_eq!(b.subscribe(n).unwrap(), d);
    }
    let carol = collab
        .connect("carol", tendax_collab::Platform::Linux)
        .unwrap();
    let mut carol_docs = docs.map(|d| carol.open_id(DocId(d)).unwrap());
    // Some length, so that opening a snapshot takes long enough for
    // commits to land while it happens.
    for ed in &mut carol_docs {
        ed.type_text(0, &"filler ".repeat(500)).unwrap();
    }

    for round in 0..ROUNDS {
        let reopened = round % 2;
        let start = std::sync::Barrier::new(3);
        let last_ts = std::thread::scope(|s| {
            let over_tcp = s.spawn(|| {
                start.wait();
                let mut last = [0u64; 2];
                for i in 0..EDITS {
                    let d = i % 2;
                    last[d] = a.insert(docs[d], 0, "a").unwrap().1;
                }
                last
            });
            let in_process = s.spawn(|| {
                start.wait();
                let mut last = [0u64; 2];
                for i in 0..EDITS {
                    let d = (i + 1) % 2;
                    let end = carol_docs[d].len();
                    last[d] = carol_docs[d].type_text(end, "c").unwrap().commit_ts;
                }
                last
            });
            start.wait();
            b.unsubscribe(docs[reopened]).unwrap();
            assert_eq!(b.subscribe(names[reopened]).unwrap(), docs[reopened]);
            let (x, y) = (over_tcp.join().unwrap(), in_process.join().unwrap());
            [x[0].max(y[0]), x[1].max(y[1])]
        });
        for d in 0..2 {
            assert!(
                b.wait_synced(docs[d], last_ts[d], WAIT),
                "round {round}: {} never reached ts {}: mirror {:?}, server {:?}",
                names[d],
                last_ts[d],
                b.mirror_status(docs[d]),
                server.stats(),
            );
            let want = collab.textdb().document_text(DocId(docs[d])).unwrap();
            assert!(
                shows(&b, docs[d], &want),
                "round {round}: {} diverged from the database: mirror {:?}",
                names[d],
                b.mirror_status(docs[d]),
            );
        }
    }
    // Four subscriptions, two documents, one path: every event reached
    // its subscribers from the thread that committed it.
    let stats = server.stats();
    assert!(
        stats.events_forwarded >= (ROUNDS * EDITS * 2) as u64,
        "{stats:?}"
    );
    assert_eq!(stats.frames_dropped, 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// Hostile input is isolated to the offending connection.
// ---------------------------------------------------------------------

#[test]
fn unknown_tag_disconnects_only_the_offender() {
    let (server, _collab) = serve(&["alice", "mallory"], &["doc"], NetConfig::default());
    let addr = server.local_addr();

    let good = NetClient::connect(addr, "alice").unwrap();
    let doc = good.subscribe("doc").unwrap();

    let mut evil = RawClient::hello(addr, "mallory");
    evil.send_bytes(&tendax_net::wire::encode_frame(0xEE, b"garbage"));
    match evil.drain_to_eof() {
        Some(Frame::Error { code, .. }) => assert_eq!(code, codes::PROTOCOL),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }

    // The good client is untouched.
    let (_, ts) = good.insert(doc, 0, "still alive").unwrap();
    assert!(good.wait_synced(doc, ts, WAIT));
    assert_eq!(good.text(doc).unwrap(), "still alive");
    assert_eq!(server.stats().protocol_errors, 1);
}

#[test]
fn truncated_frame_then_disconnect_is_isolated() {
    let (server, _collab) = serve(&["alice", "mallory"], &["doc"], NetConfig::default());
    let addr = server.local_addr();

    let good = NetClient::connect(addr, "alice").unwrap();
    let doc = good.subscribe("doc").unwrap();

    // Mallory sends half an Edit frame, then vanishes mid-frame.
    let mut evil = RawClient::hello(addr, "mallory");
    let frame = Frame::Subscribe { name: "doc".into() }.encode();
    evil.send_bytes(&frame[..frame.len() / 2]);
    drop(evil);

    let (_, ts) = good.insert(doc, 0, "unharmed").unwrap();
    assert!(good.wait_synced(doc, ts, WAIT));
    assert_eq!(good.text(doc).unwrap(), "unharmed");
}

#[test]
fn oversized_length_prefix_gets_typed_error_and_close() {
    let (server, _collab) = serve(&["mallory"], &[], NetConfig::default());
    let mut evil = RawClient::hello(server.local_addr(), "mallory");
    evil.send_bytes(&u32::MAX.to_le_bytes());
    match evil.drain_to_eof() {
        Some(Frame::Error { code, message }) => {
            assert_eq!(code, codes::PROTOCOL);
            assert!(message.contains("exceeds maximum"), "got {message:?}");
        }
        other => panic!("expected typed error, got {other:?}"),
    }
}

#[test]
fn malformed_payload_gets_typed_error() {
    let (server, _collab) = serve(&["mallory"], &["doc"], NetConfig::default());
    let mut evil = RawClient::hello(server.local_addr(), "mallory");
    // A Subscribe frame whose string length prefix overruns the payload.
    let mut payload = Vec::new();
    payload.extend_from_slice(&100u32.to_le_bytes());
    payload.extend_from_slice(b"short");
    evil.send_bytes(&tendax_net::wire::encode_frame(0x04, &payload));
    match evil.drain_to_eof() {
        Some(Frame::Error { code, .. }) => assert_eq!(code, codes::PROTOCOL),
        other => panic!("expected typed error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Handshake rejection.
// ---------------------------------------------------------------------

#[test]
fn handshake_rejects_bad_token_unknown_user_and_version_skew() {
    let config = NetConfig {
        token: Some("sesame".into()),
        ..NetConfig::default()
    };
    let (server, _collab) = serve(&["alice"], &[], config);
    let addr = server.local_addr();

    // Wrong token.
    let cfg = ClientConfig {
        token: "wrong".into(),
        ..ClientConfig::default()
    };
    match NetClient::connect_with(addr, "alice", cfg) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, codes::AUTH),
        other => panic!("bad token accepted: {other:?}"),
    }

    // Unknown user.
    let cfg = ClientConfig {
        token: "sesame".into(),
        ..ClientConfig::default()
    };
    match NetClient::connect_with(addr, "nobody", cfg) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, codes::AUTH),
        other => panic!("unknown user accepted: {other:?}"),
    }

    // Version skew (raw, because NetClient always sends the real one).
    let mut raw = RawClient::connect(addr);
    raw.send(&Frame::Hello {
        version: 999,
        user: "alice".into(),
        platform: "Linux".into(),
        token: "sesame".into(),
    });
    match raw.drain_to_eof() {
        Some(Frame::Error { code, .. }) => assert_eq!(code, codes::AUTH),
        other => panic!("version skew accepted: {other:?}"),
    }

    // Correct everything still works.
    let cfg = ClientConfig {
        token: "sesame".into(),
        ..ClientConfig::default()
    };
    let c = NetClient::connect_with(addr, "alice", cfg).unwrap();
    assert!(c.session() > 0);
    assert_eq!(server.stats().auth_failures, 3);
}

// ---------------------------------------------------------------------
// Slow-consumer policy over real sockets.
// ---------------------------------------------------------------------

#[test]
fn slow_consumer_is_cut_without_wedging_the_server() {
    let config = NetConfig {
        // Small enough that the sloth's queue overflows within a few
        // events of its writer blocking, but big enough that the
        // *healthy* client — whose writer drains promptly — never
        // overflows on a delivery burst: its convergence must go through
        // the ordinary event stream, not the drop-recovery path (that
        // path has its own test and is far slower on a shared-core CI
        // runner, which made this test flaky at capacity 2).
        outbound_capacity: 16,
        lag_limit: 3,
        // Long enough that the healthy client pushes several events into
        // the stalled connection's queue before the writer gives up — and
        // generous enough that a CPU-starved run (the whole workspace's
        // test binaries share one core in CI) can't trip it for the
        // *healthy* connection's reply frames. The sloth is cut by the
        // lag limit, not this timeout, so the slack costs nothing.
        critical_send_timeout: Duration::from_secs(10),
        read_tick: Duration::from_millis(10),
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "sloth"], &["doc"], config);
    let addr = server.local_addr();

    let good = NetClient::connect(addr, "alice").unwrap();
    let doc = good.subscribe("doc").unwrap();

    // The sloth subscribes, then never reads again: its kernel buffer
    // fills, the writer blocks, the outbound queue fills, and every
    // further event counts as lag.
    let mut sloth = RawClient::hello(addr, "sloth");
    sloth.send(&Frame::Subscribe { name: "doc".into() });
    match sloth.recv() {
        Some(Frame::Snapshot { .. }) => {}
        other => panic!("expected snapshot, got {other:?}"),
    }

    // Sized so event frames fill the socket buffers after a handful of
    // edits (stalling the writer on its write timeout) while individual
    // edits stay fast enough that several more arrive during the stall,
    // overflowing the sloth's queue: both the drop counter and the
    // disconnect fire.
    let blob = "x".repeat(2 * 1024);
    // The sloth's writer has to ride out several socket write timeouts
    // before the lag limit trips, so the cut takes tens of seconds even
    // unloaded — size the deadline for a starved CI core, not a laptop.
    let deadline = Instant::now() + WAIT * 4;
    let mut last_ts = 0;
    while server.stats().slow_disconnects == 0 {
        assert!(
            Instant::now() < deadline,
            "slow consumer never cut; stats = {:?}",
            server.stats()
        );
        let (_, ts) = good.insert(doc, 0, &blob).unwrap();
        last_ts = ts;
    }
    assert!(server.stats().frames_dropped > 0);

    // The healthy client still converges, byte-identically with the db.
    // Its own frames may have been dropped while the test starved it of
    // CPU (shared-core CI), in which case convergence goes through a
    // recovery snapshot of the now-large document — give that path real
    // headroom instead of the interactive-scale WAIT.
    let converge = WAIT * 4;
    assert!(good.wait_synced(doc, last_ts, converge));
    let user = collab.textdb().user_by_name("alice").unwrap();
    let authoritative = collab.textdb().open(DocId(doc), user).unwrap().text();
    assert_eq!(good.text(doc).unwrap(), authoritative);

    // And new connections are still served.
    let late = NetClient::connect(addr, "sloth").unwrap();
    let d2 = late.subscribe("doc").unwrap();
    assert_eq!(d2, doc);
    assert!(late.wait_synced(doc, last_ts, converge));
    assert_eq!(late.text(doc).unwrap(), good.text(doc).unwrap());
}

// ---------------------------------------------------------------------
// Awareness and liveness over the wire.
// ---------------------------------------------------------------------

#[test]
fn awareness_presence_and_ping_round_trip() {
    let (server, _collab) = serve(&["alice", "bob"], &["doc"], NetConfig::default());
    let addr = server.local_addr();

    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();
    let doc = a.subscribe("doc").unwrap();
    b.subscribe("doc").unwrap();

    a.ping().unwrap();

    a.awareness(doc, Some(4), Some((1, 4))).unwrap();
    // Awareness is fire-and-forget; poll until the registry reflects it.
    let deadline = Instant::now() + WAIT;
    loop {
        let entries = b.presence(doc).unwrap();
        if let Some(p) = entries
            .iter()
            .find(|p| p.user_name == "alice" && p.cursor == Some(4))
        {
            assert_eq!(p.selection, Some((1, 4)));
            assert_eq!(p.doc, Some(doc));
            break;
        }
        assert!(Instant::now() < deadline, "alice's awareness never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Dropping the subscription clears presence on the server (the
    // editor-doc drop path), so bob stops seeing alice on the doc.
    a.unsubscribe(doc).unwrap();
    let deadline = Instant::now() + WAIT;
    loop {
        let entries = b.presence(doc).unwrap();
        if !entries.iter().any(|p| p.user_name == "alice") {
            break;
        }
        assert!(Instant::now() < deadline, "alice's presence never cleared");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(server);
}

/// A snapshot the server cannot serve is refused with the reason.
/// `db_snapshot` used to return `Option`: "cannot snapshot document",
/// whether the document was gone, the chain corrupt or, as here, the
/// right to read revoked between two opens.
#[test]
fn refused_snapshots_say_why() {
    use tendax_text::{Permission, Principal};
    let (server, collab) = serve(&["alice", "bob"], &["doc"], NetConfig::default());
    let tdb = collab.textdb();
    let [alice, bob] = ["alice", "bob"].map(|u| tdb.user_by_name(u).unwrap());
    let id = tdb.document_by_name("doc").unwrap();

    let b = NetClient::connect(server.local_addr(), "bob").unwrap();
    let doc = b.subscribe("doc").unwrap();
    tdb.set_access(id, alice, Principal::User(alice), Permission::Read, true)
        .unwrap();

    let why = format!("{bob} lacks Read on {id}");
    for refused in [b.subscribe("doc").map(drop), b.resync(doc)] {
        match refused {
            Err(NetError::Remote { code, message }) => {
                assert_eq!(code, codes::REJECTED);
                assert!(message.contains(&why), "got {message:?}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
    // Neither attempt was a read; the first subscribe was.
    assert_eq!(tdb.read_count(id).unwrap(), 1);
}

#[test]
fn resync_recovers_a_deliberately_poisoned_mirror() {
    let (server, _collab) = serve(&["alice", "bob"], &["doc"], NetConfig::default());
    let addr = server.local_addr();

    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();
    let doc = a.subscribe("doc").unwrap();
    b.subscribe("doc").unwrap();

    let (_, t1) = a.insert(doc, 0, "hello world").unwrap();
    assert!(b.wait_synced(doc, t1, WAIT));

    // Explicit resync must reproduce the same state.
    b.resync(doc).unwrap();
    assert_eq!(b.text(doc).unwrap(), "hello world");
    assert!(!b.needs_resync(doc));

    let (_, t2) = a.delete(doc, 0, 6).unwrap();
    assert!(b.wait_synced(doc, t2, WAIT));
    assert_eq!(b.text(doc).unwrap(), "world");
}

/// A snapshot nobody waits for — a recovery snapshot that crossed the
/// client's `unsubscribe` — must not bring a mirror back: no event would
/// reach it, and `text` would serve it stale for good. A fake server
/// sends one for a document the client never subscribed to.
#[test]
fn an_unasked_snapshot_creates_no_mirror() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut buf = FrameBuffer::default();
        let mut next = |sock: &mut TcpStream| loop {
            if let Some((tag, payload)) = buf.try_frame().unwrap() {
                return Frame::decode(tag, &payload).unwrap();
            }
            let mut bytes = [0u8; 4096];
            let n = sock.read(&mut bytes).unwrap();
            assert!(n > 0, "the client hung up");
            buf.extend(&bytes[..n]);
        };
        assert!(matches!(next(&mut sock), Frame::Hello { .. }));
        sock.write_all(&Frame::Welcome { session: 1 }.encode())
            .unwrap();
        let unasked = Frame::Snapshot {
            doc: 7,
            synced_ts: 3,
            chars: Vec::new(),
        };
        sock.write_all(&unasked.encode()).unwrap();
        let Frame::Ping { nonce } = next(&mut sock) else {
            panic!("expected a ping");
        };
        sock.write_all(&Frame::Pong { nonce }.encode()).unwrap();
        sock
    });
    let client = NetClient::connect(addr, "alice").unwrap();
    // The pong follows the snapshot on the stream: the snapshot has been
    // read by the time the ping returns.
    client.ping().unwrap();
    assert_eq!(client.text(7), None);
    drop(client);
    server.join().unwrap();
}
