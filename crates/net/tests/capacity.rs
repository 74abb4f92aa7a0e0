//! Regression tests for the server's connection bound and the
//! slow-consumer policy of the publisher-push event path.
//!
//! The `max_connections` limit exists because the accept path used to
//! spawn the full per-connection thread set for every socket that
//! showed up: an accept flood could exhaust the process. Excess clients
//! must now be turned away with a typed goodbye frame before any
//! threads or sessions are created for them.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tendax_collab::{CollabServer, Platform};
use tendax_net::{codes, Frame, NetClient, NetConfig, NetError, NetServer, PROTOCOL_VERSION};
use tendax_text::TextDb;

const WAIT: Duration = Duration::from_secs(30);

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

/// Limit 2, 3 clients: the third is rejected with `codes::CAPACITY`,
/// and a slot freed by a disconnect becomes usable again.
#[test]
fn third_client_rejected_at_limit_two() {
    let config = NetConfig {
        max_connections: 2,
        ..NetConfig::default()
    };
    let (server, _collab) = serve(&["alice", "bob", "carol"], &["doc"], config);
    let addr = server.local_addr();

    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();

    match NetClient::connect(addr, "carol") {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, codes::CAPACITY, "got {message:?}");
            assert!(message.contains("capacity"), "got {message:?}");
        }
        Ok(_) => panic!("third client must be rejected at limit 2"),
        Err(other) => panic!("expected typed capacity error, got {other:?}"),
    }
    assert_eq!(server.stats().capacity_rejects, 1);

    // Both admitted connections still work.
    a.ping().unwrap();
    b.ping().unwrap();

    // Freeing a slot re-admits new clients (the server lets go of the
    // closed connection once its reader sees the hang-up; retry until it
    // does).
    drop(a);
    let deadline = Instant::now() + WAIT;
    let c = loop {
        match NetClient::connect(addr, "carol") {
            Ok(c) => break c,
            Err(NetError::Remote { code, .. }) if code == codes::CAPACITY => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(other) => panic!("unexpected error while waiting for slot: {other:?}"),
        }
    };
    c.ping().unwrap();
}

/// A rejected client costs the server no session state: rejects do not
/// disturb established subscriptions or the event stream.
#[test]
fn rejects_do_not_disturb_established_clients() {
    let config = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let (server, _collab) = serve(&["alice", "bob"], &["doc"], config);
    let addr = server.local_addr();

    let a = NetClient::connect(addr, "alice").unwrap();
    let doc = a.subscribe("doc").unwrap();
    for _ in 0..5 {
        assert!(matches!(
            NetClient::connect(addr, "bob"),
            Err(NetError::Remote { code, .. }) if code == codes::CAPACITY
        ));
    }
    let (_, ts) = a.insert(doc, 0, "still here").unwrap();
    assert!(a.wait_synced(doc, ts, WAIT));
    assert_eq!(a.text(doc).unwrap(), "still here");
    assert_eq!(server.stats().capacity_rejects, 5);
}

/// A raw socket that says `Hello`, reads (some of) the `Welcome`,
/// subscribes to `docs` and then never reads again.
fn stalled_subscriber(addr: std::net::SocketAddr, user: &str, docs: &[&str]) -> TcpStream {
    let sloth = TcpStream::connect(addr).unwrap();
    let mut s = &sloth;
    s.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            user: user.into(),
            platform: "Linux".into(),
            token: String::new(),
        }
        .encode(),
    )
    .unwrap();
    let mut buf = [0u8; 64];
    let _ = s.read(&mut buf);
    for (request, doc) in (1..).zip(docs) {
        s.write_all(
            &Frame::Subscribe {
                request,
                name: (*doc).into(),
                resume: None,
            }
            .encode(),
        )
        .unwrap();
    }
    sloth
}

/// The slow-consumer path: a client that stops reading is cut with
/// `SLOW_CONSUMER` without holding anything up for other clients.
#[test]
fn stalled_reader_is_cut_and_flooder_survives_on_recovery_snapshots() {
    // Tiny queue so the sloth overflows fast, but a lag limit far above
    // any transient drop burst: the flooding healthy client must keep
    // surviving on recovery snapshots (which reset its lag), and the
    // sloth must be cut by the recovery *deadline* — its snapshot can
    // never land — not by racing the lag counter.
    let config = NetConfig {
        outbound_capacity: 2,
        lag_limit: 10_000,
        critical_send_timeout: Duration::from_millis(500),
        ..NetConfig::default()
    };
    let (server, _collab) = serve(&["alice", "sloth"], &["doc"], config);
    let addr = server.local_addr();

    let good = NetClient::connect(addr, "alice").unwrap();
    let doc = good.subscribe("doc").unwrap();
    let _sloth = stalled_subscriber(addr, "sloth", &["doc"]);

    // Flood until the sloth's queue overflows and the policy fires.
    let deadline = Instant::now() + WAIT;
    let mut last_ts = 0;
    while server.stats().slow_disconnects == 0 {
        assert!(Instant::now() < deadline, "slow consumer never cut");
        let (_, ts) = good
            .insert(doc, 0, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
            .unwrap();
        last_ts = ts;
    }
    // The healthy client is unaffected.
    assert!(good.wait_synced(doc, last_ts, WAIT));
    good.ping().unwrap();
}

/// Regression: one slow-consumer cut was counted twice. The lag limit
/// cut a subscriber whose writer was blocked on its full socket, and the
/// writer's write timeout then counted the same connection again. The
/// typist edits in process, so the staller is the only connection.
#[test]
fn a_slow_consumer_cut_is_counted_once() {
    let config = NetConfig {
        outbound_capacity: 2,
        lag_limit: 3,
        critical_send_timeout: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "sloth"], &["doc"], config);
    let id = collab.textdb().document_by_name("doc").unwrap();
    let alice = collab.connect("alice", Platform::Linux).unwrap();
    let mut editor = alice.open_id(id).unwrap();
    let _sloth = stalled_subscriber(server.local_addr(), "sloth", &["doc"]);
    let deadline = Instant::now() + WAIT;
    while collab.textdb().read_count(id).unwrap() < 2 {
        assert!(Instant::now() < deadline, "the subscribe never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Paced, so the writer keeps up until the staller's socket is full:
    // frames are dropped only once the writer is blocked writing.
    let blob = "x".repeat(1024);
    let mut typed = 0;
    while server.stats().slow_disconnects == 0 {
        assert!(Instant::now() < deadline, "slow consumer never cut");
        editor.type_text(typed, &blob).unwrap();
        typed += blob.len();
        std::thread::sleep(Duration::from_millis(1));
    }
    // The writer, blocked on the full socket, gives up within a few of
    // its write timeouts (a partial write restarts one): no second count.
    let settled = Instant::now() + Duration::from_secs(5);
    while Instant::now() < settled {
        let stats = server.stats();
        assert_eq!(
            (stats.accepted, stats.slow_disconnects),
            (1, 1),
            "{stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Lag is kept per subscription (the accounting itself is pinned by
/// `server::tests::recovering_one_stream_keeps_the_lag_of_the_others`):
/// a reader that stalls on two documents loses both streams, and when it
/// reads again *each* is recovered by its own snapshot — neither
/// document's recovery stands in for the other's. The typist edits in
/// process, so the staller is the only connection a frame can be dropped
/// from.
#[test]
fn stalled_reader_recovers_both_documents_it_lost() {
    let config = NetConfig {
        outbound_capacity: 2,
        lag_limit: 1_000_000,
        critical_send_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "bob"], &["left", "right"], config);
    let addr = server.local_addr();
    let ids = ["left", "right"].map(|name| collab.textdb().document_by_name(name).unwrap());
    let [left, right] = ids.map(|id| id.0);

    let alice = collab.connect("alice", Platform::Linux).unwrap();
    let mut editors = ids.map(|id| alice.open_id(id).unwrap());
    let staller = stalled_subscriber(addr, "bob", &["left", "right"]);
    // Alice's open and bob's subscribe: both streams exist.
    let deadline = Instant::now() + WAIT;
    while ids.map(|id| collab.textdb().read_count(id).unwrap()) != [2, 2] {
        assert!(Instant::now() < deadline, "bob's subscribes never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Type into both documents until frames have been dropped — the
    // staller's socket is full, and it is the only connection — and then
    // some more into each, so that both of its streams are lost for
    // certain.
    let blob = "x".repeat(1024);
    let deadline = Instant::now() + WAIT * 4;
    let mut last = [0, 0];
    let mut since_first_drop = 0;
    while since_first_drop < 2 {
        assert!(Instant::now() < deadline, "nothing was ever dropped");
        for (editor, last) in editors.iter_mut().zip(&mut last) {
            *last = editor.type_text(0, &blob).unwrap().commit_ts;
        }
        if server.stats().frames_dropped > 0 {
            since_first_drop += 1;
        }
    }

    // The staller reads again. Everything it receives from here is
    // decoded into mirrors the way `NetClient` does it.
    staller.set_read_timeout(Some(WAIT)).unwrap();
    let mut buf = tendax_net::FrameBuffer::default();
    let mut mirrors: std::collections::HashMap<u64, tendax_net::MirrorDoc> = Default::default();
    let mut scratch = vec![0u8; 64 * 1024];
    let synced = |m: &std::collections::HashMap<u64, tendax_net::MirrorDoc>| {
        [(left, last[0]), (right, last[1])]
            .iter()
            .all(|(doc, ts)| m.get(doc).is_some_and(|m| m.synced_ts() >= *ts))
    };
    loop {
        while let Some((tag, payload)) = buf.next_frame().expect("framing") {
            match Frame::decode(tag, payload).expect("decode") {
                Frame::Snapshot {
                    doc,
                    synced_ts,
                    chars,
                    ..
                } => {
                    mirrors.insert(
                        doc,
                        tendax_net::MirrorDoc::new(doc, synced_ts, chars).unwrap(),
                    );
                }
                Frame::Event(ev) => {
                    if let Some(m) = mirrors.get_mut(&ev.doc) {
                        m.apply_event(ev).expect("events in commit order");
                    }
                }
                Frame::Welcome { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // The last frame may have come in the chunk just decoded: read
        // only what the server still owes.
        if synced(&mirrors) {
            break;
        }
        let n = (&staller).read(&mut scratch).expect("staller read");
        assert!(n > 0, "server closed the staller: {:?}", server.stats());
        buf.extend(&scratch[..n]);
    }
    for (doc, name) in [(left, "left"), (right, "right")] {
        let id = collab.textdb().document_by_name(name).unwrap();
        assert_eq!(
            mirrors[&doc].text(),
            collab.textdb().document_text(id).unwrap(),
            "{name} diverged after recovery"
        );
    }
    assert_eq!(server.stats().slow_disconnects, 0);
}

/// A committed edit is broadcast even when its own reply cannot be
/// delivered. The typist stops reading and pipelines edits whose echoes
/// fill its socket and then its one-frame queue, so its connection is
/// cut while an `EditOk` waits for room — after the commit. The other
/// subscriber is owed that edit like any other.
#[test]
fn edit_whose_reply_cannot_be_queued_is_still_broadcast() {
    let config = NetConfig {
        outbound_capacity: 1,
        lag_limit: 1_000_000,
        critical_send_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "bob"], &["doc"], config);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();

    // The commit timestamp of the last edit anyone was told about.
    let last_published = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&last_published);
    collab
        .transport()
        .register_publish_hook(Box::new(move |ev| {
            seen.fetch_max(ev.commit_ts, Ordering::SeqCst);
            true
        }));

    let b = NetClient::connect(addr, "bob").unwrap();
    let doc = b.subscribe("doc").unwrap();

    let typist = stalled_subscriber(addr, "alice", &["doc"]);
    let pipeline = {
        let typist = typist.try_clone().unwrap();
        std::thread::spawn(move || {
            let text = "y".repeat(4 * 1024);
            for request in 1..=400 {
                let edit = Frame::Edit {
                    request,
                    doc,
                    op: tendax_net::EditOp::Insert {
                        pos: 0,
                        text: text.clone(),
                    },
                };
                // The server stops reading once the typist is cut.
                if (&typist).write_all(&edit.encode()).is_err() {
                    break;
                }
            }
        })
    };

    let deadline = Instant::now() + WAIT * 4;
    while server.stats().slow_disconnects == 0 {
        assert!(
            Instant::now() < deadline,
            "typist never cut: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Unblock the pipeline thread if it is stuck in a write, then wait
    // for the server to let go of the connection: no commit follows.
    let _ = typist.shutdown(std::net::Shutdown::Both);
    pipeline.join().unwrap();
    let deadline = Instant::now() + WAIT;
    while collab.who_is_online().len() > 1 {
        assert!(Instant::now() < deadline, "typist's session never ended");
        std::thread::sleep(Duration::from_millis(20));
    }

    let text = collab.textdb().document_text(id).unwrap();
    assert!(!text.is_empty(), "no edit was committed at all");
    let last_ts = last_published.load(Ordering::SeqCst);
    assert!(b.wait_synced(doc, last_ts, WAIT * 4));
    assert_eq!(
        b.text(doc).unwrap(),
        text,
        "a committed edit never reached the subscriber"
    );
}

/// Regression: `Resync` and the writer's lost-stream recovery used to go
/// through `TextDb::open`, which commits a `reads` row in the user's
/// name — a stalled client inflated the document's read count (and with
/// it `ReadBy` folders and reader lists) by one per repair. A reader
/// recovered several times, and a client resynced on top, leave the
/// count where the three opens left it: the typist's, in process, so the
/// staller is the only connection a frame can be dropped from; the
/// staller's subscribe; the resyncing client's subscribe.
#[test]
fn transport_repairs_are_not_recorded_as_reads() {
    let config = NetConfig {
        outbound_capacity: 2,
        lag_limit: 1_000_000,
        critical_send_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "bob"], &["doc"], config);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();
    let reads = || collab.textdb().read_count(id).unwrap();

    let alice = collab.connect("alice", Platform::Linux).unwrap();
    let mut editor = alice.open_id(id).unwrap();
    let staller = stalled_subscriber(addr, "bob", &["doc"]);
    let deadline = Instant::now() + WAIT;
    while reads() < 2 {
        assert!(Instant::now() < deadline, "bob's subscribe never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    staller.set_read_timeout(Some(WAIT)).unwrap();
    let mut buf = tendax_net::FrameBuffer::default();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut mirror: Option<tendax_net::MirrorDoc> = None;
    // Snapshots and deltas: the subscription's answer and the recoveries.
    let mut joins = 0;
    // Typed at the end: a mirror integrates a typing run in place.
    let blob = "x".repeat(1024);
    let mut typed = 0;
    for round in 0..2 {
        // The staller is not reading: type until its stream is lost.
        let dropped = server.stats().frames_dropped;
        let deadline = Instant::now() + WAIT * 4;
        let mut last = 0;
        let mut since_drop = 0;
        while since_drop < 2 {
            assert!(Instant::now() < deadline, "round {round}: nothing dropped");
            last = editor.type_text(typed, &blob).unwrap().commit_ts;
            typed += blob.len();
            since_drop += (server.stats().frames_dropped > dropped) as u32;
        }
        // It reads again, until it has been brought up to date.
        loop {
            while let Some((tag, payload)) = buf.next_frame().expect("framing") {
                match Frame::decode(tag, payload).expect("decode") {
                    Frame::Snapshot {
                        doc,
                        synced_ts,
                        chars,
                        ..
                    } => {
                        joins += 1;
                        mirror = Some(tendax_net::MirrorDoc::new(doc, synced_ts, chars).unwrap());
                    }
                    Frame::Delta {
                        doc,
                        from,
                        synced_ts,
                        events,
                        ..
                    } => {
                        joins += 1;
                        let mirror = mirror.as_mut().expect("snapshot first");
                        mirror.apply_delta(doc, from, synced_ts, events).unwrap();
                    }
                    Frame::Event(ev) => {
                        let mirror = mirror.as_mut().expect("snapshot first");
                        mirror.apply_event(ev).expect("events in commit order");
                    }
                    Frame::Welcome { .. } => {}
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            // Read only what the server still owes.
            if mirror.as_ref().is_some_and(|m| m.synced_ts() >= last) {
                break;
            }
            let n = (&staller).read(&mut scratch).expect("staller read");
            assert!(n > 0, "server closed the staller: {:?}", server.stats());
            buf.extend(&scratch[..n]);
        }
    }
    let good = NetClient::connect(addr, "alice").unwrap();
    let doc = good.subscribe("doc").unwrap();
    for _ in 0..3 {
        good.resync(doc).unwrap();
    }
    assert!(joins >= 3, "one subscribe, two recoveries: {joins}");
    assert_eq!(
        mirror.unwrap().text(),
        collab.textdb().document_text(id).unwrap()
    );
    assert_eq!(reads(), 3, "a repair was recorded as a read");
}

/// A publisher writes each subscriber's socket itself, and never waits on
/// it: a subscriber that stops reading, on a server that would let a
/// socket write wait a minute, costs the typist nothing. Every edit is
/// acknowledged within a second while the staller's socket fills, its
/// stream is lost and it is cut for lag. (A publisher that waited on the
/// staller's socket would hold the typist's next reply for the whole
/// write timeout.)
#[test]
fn a_stalled_subscriber_never_holds_up_a_typists_ack() {
    let config = NetConfig {
        outbound_capacity: 4,
        lag_limit: 4,
        critical_send_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "sloth"], &["doc"], config);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();
    let alice = NetClient::connect(addr, "alice").unwrap();
    let doc = alice.subscribe("doc").unwrap();
    let _sloth = stalled_subscriber(addr, "sloth", &["doc"]);
    let deadline = Instant::now() + WAIT;
    while collab.textdb().read_count(id).unwrap() < 2 {
        assert!(Instant::now() < deadline, "the subscribe never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    let blob = "x".repeat(1024);
    let deadline = Instant::now() + WAIT * 4;
    let (mut typed, mut edits, mut last) = (0, 0, 0);
    while server.stats().slow_disconnects == 0 {
        assert!(Instant::now() < deadline, "the staller was never cut");
        let asked = Instant::now();
        last = alice.insert(doc, typed, &blob).unwrap().1;
        let took = asked.elapsed();
        edits += 1;
        assert!(
            took < Duration::from_secs(1),
            "edit {edits} was acknowledged after {took:?}: {:?}",
            server.stats()
        );
        typed += blob.len();
    }
    assert!(alice.wait_synced(doc, last, WAIT));
    assert_eq!(
        alice.text(doc).unwrap(),
        collab.textdb().document_text(id).unwrap()
    );
    assert_eq!(server.stats().slow_disconnects, 1);
}

/// What a publisher's write leaves unsent goes out first, from the
/// writer: a subscriber that stops reading until a publisher's write to
/// it falls short, and a few edits more, and then reads everything, gets
/// the snapshot and every edit's event, each whole and in commit order.
#[test]
fn a_write_cut_short_is_finished_by_the_writer_in_order() {
    let config = NetConfig {
        critical_send_timeout: Duration::from_secs(60),
        lag_limit: 1_000_000,
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "bob"], &["doc"], config);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();
    let alice = NetClient::connect(addr, "alice").unwrap();
    let doc = alice.subscribe("doc").unwrap();
    let staller = stalled_subscriber(addr, "bob", &["doc"]);
    let deadline = Instant::now() + WAIT;
    while collab.textdb().read_count(id).unwrap() < 2 {
        assert!(Instant::now() < deadline, "the subscribe never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A parked writer is woken only for the bytes a write left unsent:
    // the staller's socket is full.
    let wakes = server.stats().writer_wakes;
    let blob = "x".repeat(1024);
    let deadline = Instant::now() + WAIT * 4;
    let (mut typed, mut edits, mut more) = (0, 0, 8);
    let mut last = 0;
    while more > 0 {
        assert!(Instant::now() < deadline, "no write fell short");
        last = alice.insert(doc, typed, &blob).unwrap().1;
        typed += blob.len();
        edits += 1;
        if server.stats().writer_wakes > wakes {
            more -= 1;
        }
    }

    staller.set_read_timeout(Some(WAIT)).unwrap();
    let mut buf = tendax_net::FrameBuffer::default();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut mirror: Option<tendax_net::MirrorDoc> = None;
    let mut events = 0;
    while mirror.as_ref().is_none_or(|m| m.synced_ts() < last) {
        let n = (&staller).read(&mut scratch).expect("staller read");
        assert!(n > 0, "server closed the staller: {:?}", server.stats());
        buf.extend(&scratch[..n]);
        while let Some((tag, payload)) = buf.next_frame().expect("framing") {
            match Frame::decode(tag, payload).expect("decode") {
                Frame::Snapshot {
                    doc,
                    synced_ts,
                    chars,
                    request: 1,
                } => {
                    assert!(mirror.is_none(), "a second snapshot");
                    mirror = Some(tendax_net::MirrorDoc::new(doc, synced_ts, chars).unwrap());
                }
                Frame::Event(ev) => {
                    let mirror = mirror.as_mut().expect("the snapshot first");
                    let at = ev.commit_ts;
                    assert!(mirror.apply_event(ev).unwrap(), "commit {at} out of order");
                    events += 1;
                }
                Frame::Welcome { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    assert_eq!(events, edits, "{:?}", server.stats());
    assert_eq!(
        mirror.unwrap().text(),
        collab.textdb().document_text(id).unwrap()
    );
    assert_eq!(server.stats().frames_dropped, 0);
}

/// A frame that comes in while the connection's write side is held
/// elsewhere is answered by the writer, and counted. Bob stops reading
/// until a publisher's write to him falls short: what it left unsent
/// waits for his writer, blocked on his full socket. Each ping he sends
/// then is an answer his reader leaves to that writer.
#[test]
fn an_answer_left_to_the_writer_is_counted() {
    let config = NetConfig {
        critical_send_timeout: Duration::from_secs(60),
        lag_limit: 1_000_000,
        ..NetConfig::default()
    };
    let (server, collab) = serve(&["alice", "bob"], &["doc"], config);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();
    let alice = NetClient::connect(addr, "alice").unwrap();
    let doc = alice.subscribe("doc").unwrap();
    let staller = stalled_subscriber(addr, "bob", &["doc"]);
    let deadline = Instant::now() + WAIT;
    while collab.textdb().read_count(id).unwrap() < 2 {
        assert!(Instant::now() < deadline, "the subscribe never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    let wakes = server.stats().writer_wakes;
    let blob = "x".repeat(1024);
    let deadline = Instant::now() + WAIT * 4;
    let mut typed = 0;
    while server.stats().writer_wakes == wakes {
        assert!(Instant::now() < deadline, "no write fell short");
        alice.insert(doc, typed, &blob).unwrap();
        typed += blob.len();
    }

    let before = server.stats().answers_handed_off;
    const PINGS: u64 = 3;
    for nonce in 0..PINGS {
        (&staller)
            .write_all(&Frame::Ping { nonce }.encode())
            .unwrap();
    }
    let deadline = Instant::now() + WAIT;
    while server.stats().answers_handed_off < before + PINGS {
        assert!(
            Instant::now() < deadline,
            "the pings were not counted: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().answers_handed_off, before + PINGS);
    drop(staller);
}
