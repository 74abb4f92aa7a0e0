//! The server's live documents, over real sockets: the frontier a
//! snapshot names, equality with the database under random
//! interleavings and under races with in-process editors, what a second
//! open costs, and the life cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_collab::{CollabServer, EditorDoc, Platform};
use tendax_net::protocol::encode_snapshot;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_storage::Ts;
use tendax_text::{DocId, TextDb, TextError, UserId};

const WAIT: Duration = Duration::from_secs(30);

fn serve(users: &[&str], docs: &[&str]) -> (NetServer, CollabServer) {
    let collab = collab(users, docs);
    let server = NetServer::bind("127.0.0.1:0", collab.clone(), NetConfig::default()).unwrap();
    (server, collab)
}

fn collab(users: &[&str], docs: &[&str]) -> CollabServer {
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
    CollabServer::new(tdb)
}

/// Poll `done` until it holds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !done() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn shows(client: &NetClient, doc: u64, want: &str) {
    eventually(&format!("a mirror showing {want:?}"), || {
        client.text(doc).as_deref() == Some(want)
    });
}

/// Frontier. An in-process editor has committed, and its event is held
/// back on the bus by a hook that runs ahead of the server's fan-out: the
/// commit is in the database, its publication has not returned. A
/// subscriber that comes now is answered at once, with a frontier at or
/// past the commit *and* the commit's text — the commit was folded into
/// the live copy under the document's lock, before its publication began.
/// No snapshot names a frontier past a commit it lacks, and none waits
/// for a publication.
#[test]
fn snapshot_names_no_frontier_past_an_unpublished_commit() {
    let collab = collab(&["alice", "bob", "carol"], &["doc"]);
    let (parked_tx, parked) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let (parked_tx, released) = (Mutex::new(parked_tx), Mutex::new(released));
    let armed = AtomicBool::new(true);
    // Registered before the server binds, so it runs before the fan-out.
    collab
        .transport()
        .register_publish_hook(Box::new(move |ev| {
            if armed.swap(false, Ordering::SeqCst) {
                parked_tx.lock().unwrap().send(ev.commit_ts).unwrap();
                let _ = released.lock().unwrap().recv();
            }
            true
        }));
    let server = NetServer::bind("127.0.0.1:0", collab.clone(), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let a = NetClient::connect(addr, "alice").unwrap();
    let doc = a.subscribe("doc").unwrap();

    let carol = collab.connect("carol", Platform::Linux).unwrap();
    let mut editor = carol.open_id(DocId(doc)).unwrap();
    let typist = std::thread::spawn(move || editor.type_text(0, "held back").unwrap());
    let commit_ts: Ts = parked
        .recv_timeout(WAIT)
        .expect("the event reached the hook");

    let (opened, was_opened) = mpsc::channel();
    let subscriber = std::thread::spawn(move || {
        let b = NetClient::connect(addr, "bob").unwrap();
        assert_eq!(b.subscribe("doc").unwrap(), doc);
        opened
            .send((b.synced_ts(doc).unwrap(), b.text(doc).unwrap()))
            .unwrap();
        b
    });
    let answered = was_opened.recv_timeout(Duration::from_millis(300));
    release.send(()).unwrap();
    let (synced_ts, text) = answered.expect("the subscribe waited for a publication");
    assert!(
        synced_ts >= commit_ts,
        "snapshot at {synced_ts}, the commit at {commit_ts}"
    );
    assert_eq!(text, "held back");
    let receipt = typist.join().unwrap();
    assert_eq!(receipt.commit_ts, commit_ts);
    let b = subscriber.join().unwrap();

    let want = collab.textdb().document_text(DocId(doc)).unwrap();
    assert_eq!(want, "held back");
    shows(&a, doc, &want);
    shows(&b, doc, &want);
    // A mirror opened now has the acknowledged edit from the start.
    let c = NetClient::connect(addr, "carol").unwrap();
    c.subscribe("doc").unwrap();
    assert!(c.wait_synced(doc, commit_ts, Duration::ZERO));
    assert_eq!(c.text(doc).unwrap(), want);
    assert_eq!(server.stats().live_loads, 1);
}

/// The live copy of `doc` and a copy just built from the database,
/// encoded: characters, tombstones, order and `synced_ts`.
fn live_and_fresh(collab: &CollabServer, doc: DocId) -> Option<(Vec<u8>, Vec<u8>)> {
    let reader = UserId(1);
    let live = collab
        .live()
        .snapshot(doc, reader, encode_snapshot)
        .unwrap()?;
    let fresh = collab.textdb().load(doc, reader).unwrap();
    Some((live, encode_snapshot(&fresh)))
}

/// Oracle. Seeded interleavings of edits over TCP, edits in process
/// (typing, deleting, pasting, undo, global undo and moves between the
/// two documents) and subscribe / unsubscribe / resync on two documents,
/// from one thread, so every step ends quiescent: whenever a document is live, its
/// snapshot is byte for byte the one a fresh load from the database
/// encodes, and at the end every mirror shows the database's text.
#[test]
fn live_snapshot_equals_a_fresh_load_under_random_interleavings() {
    const NAMES: [&str; 2] = ["left", "right"];
    for seed in 0..6u64 {
        let (server, collab) = serve(&["alice", "bob", "carol"], &NAMES);
        let addr = server.local_addr();
        let ids = NAMES.map(|n| collab.textdb().document_by_name(n).unwrap());
        let clients = ["alice", "bob"].map(|u| NetClient::connect(addr, u).unwrap());
        let mut open = [[false; 2]; 2];
        let carol = collab.connect("carol", Platform::Linux).unwrap();
        let mut editors: Vec<EditorDoc> = ids.iter().map(|&d| carol.open_id(d).unwrap()).collect();

        let mut rng = SmallRng::seed_from_u64(0x11FE + seed);
        let mut compared = 0;
        for step in 0..160 {
            let (c, d) = (rng.gen_range(0..2usize), rng.gen_range(0..2usize));
            let client = &clients[c];
            match rng.gen_range(0..14u32) {
                0 if open[c][d] => {
                    client.unsubscribe(ids[d].0).unwrap();
                    // Answered once the server has let go.
                    client.ping().unwrap();
                    open[c][d] = false;
                }
                0..=2 => {
                    assert_eq!(client.subscribe(NAMES[d]).unwrap(), ids[d].0);
                    open[c][d] = true;
                }
                3 if open[c][d] => client.resync(ids[d].0).unwrap(),
                4..=6 if open[c][d] => {
                    let len = client.text(ids[d].0).unwrap().chars().count();
                    if len > 3 && rng.gen_bool(0.3) {
                        let at = rng.gen_range(0..len - 2);
                        client.delete(ids[d].0, at, 2).unwrap();
                    } else {
                        let text = format!("<{step}>");
                        client
                            .insert(ids[d].0, rng.gen_range(0..=len), &text)
                            .unwrap();
                    }
                }
                10 => {
                    let (left, right) = editors.split_at_mut(1);
                    let (src, dst) = if d == 0 {
                        (&mut left[0], &mut right[0])
                    } else {
                        (&mut right[0], &mut left[0])
                    };
                    src.sync();
                    dst.sync();
                    let len = src.len();
                    if len > 2 {
                        let at = rng.gen_range(0..len - 2);
                        let to = rng.gen_range(0..=dst.len());
                        src.move_text(at, 2, dst, to).unwrap();
                    }
                }
                11 => {
                    let editor = &mut editors[d];
                    editor.sync();
                    let len = editor.len();
                    if len > 2 {
                        let clip = editor.copy(rng.gen_range(0..len - 2), 2).unwrap();
                        editor.paste(rng.gen_range(0..=len), &clip).unwrap();
                    }
                }
                12 | 13 => {
                    let editor = &mut editors[d];
                    editor.sync();
                    let undone = if c == 0 {
                        editor.undo()
                    } else {
                        editor.global_undo()
                    };
                    match undone {
                        Ok(_) | Err(TextError::NothingToUndo) => {}
                        Err(e) => panic!("seed {seed} step {step}: undo failed: {e}"),
                    }
                }
                _ => {
                    let editor = &mut editors[d];
                    editor.sync();
                    let len = editor.len();
                    if len > 3 && rng.gen_bool(0.3) {
                        editor.delete(rng.gen_range(0..len - 2), 2).unwrap();
                    } else {
                        let text = format!("[{step}]");
                        editor.type_text(rng.gen_range(0..=len), &text).unwrap();
                    }
                }
            }
            for &id in &ids {
                if let Some((live, fresh)) = live_and_fresh(&collab, id) {
                    assert!(live == fresh, "seed {seed} step {step}: {id} diverged");
                    compared += 1;
                }
            }
        }
        assert!(compared > 100, "seed {seed}: only {compared} comparisons");
        for (c, client) in clients.iter().enumerate() {
            for d in 0..2 {
                if !open[c][d] {
                    client.subscribe(NAMES[d]).unwrap();
                }
                let want = collab.textdb().document_text(ids[d]).unwrap();
                shows(client, ids[d].0, &want);
            }
        }
        let stats = server.stats();
        assert_eq!(stats.live_documents, 2, "{stats:?}");
        assert_eq!(stats.frames_dropped, 0, "{stats:?}");
    }
}

/// Race. An in-process typist commits while the document's first
/// subscriber loads the live copy: the typist's attempt parks before it
/// commits, and the subscriber comes meanwhile. The typist holds the
/// document from its open, so its attempt runs under the document's lock
/// and the load waits for it. Afterwards the live copy equals a fresh
/// load, and the mirror shows the text once. (Mutation check: look the
/// document up when committing instead of holding it, and the load runs
/// beside the parked attempt; the commit then lands after the load and
/// never reaches the copy.)
#[test]
fn an_in_process_typist_racing_the_first_load_reaches_the_live_copy() {
    let (server, collab) = serve(&["alice", "carol"], &["doc"]);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();
    let carol = collab.connect("carol", Platform::Linux).unwrap();
    let mut editor = carol.open_id(id).unwrap();
    let (parked_tx, parked) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let typist = std::thread::spawn(move || {
        let mut first = true;
        editor
            .with_handle("insert", |h| {
                if std::mem::take(&mut first) {
                    parked_tx.send(()).unwrap();
                    let _ = released.recv();
                }
                Ok(((), h.insert_text(0, "raced")?))
            })
            .unwrap();
    });
    parked
        .recv_timeout(WAIT)
        .expect("the typist's attempt began");
    let (subscribed_tx, subscribed) = mpsc::channel();
    let subscriber = std::thread::spawn(move || {
        let a = NetClient::connect(addr, "alice").unwrap();
        let doc = a.subscribe("doc").unwrap();
        subscribed_tx.send(()).unwrap();
        (a, doc)
    });
    // The subscribe cannot be answered while the attempt holds the
    // document; given the time, it would be if the load ran beside it.
    let early = subscribed.recv_timeout(Duration::from_millis(100)).is_ok();
    release.send(()).unwrap();
    typist.join().unwrap();
    let (a, doc) = subscriber.join().unwrap();
    assert!(!early, "the first load ran beside a commit attempt");

    let (live, fresh) = live_and_fresh(&collab, id).expect("live");
    assert!(live == fresh, "the live copy missed the raced commit");
    shows(&a, doc, "raced");
    assert_eq!(server.stats().live_loads, 1);
}

/// Counted receipt. Opening a document that is live already reads no
/// character row: what a second subscriber costs the database does not
/// depend on the document's length, and the chain is not built again.
#[test]
fn second_subscriber_costs_the_database_a_constant() {
    let (server, collab) = serve(&["alice", "bob"], &["short", "long"]);
    let addr = server.local_addr();
    let db = collab.textdb().database().clone();
    let owner = collab.textdb().user_by_name("alice").unwrap();
    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();

    let mut costs = Vec::new();
    for (name, chars) in [("short", 1_000), ("long", 8_000)] {
        let id = collab.textdb().document_by_name(name).unwrap();
        let mut h = collab.textdb().open(id, owner).unwrap();
        h.insert_text(0, &"x".repeat(chars)).unwrap();
        drop(h);
        let doc = a.subscribe(name).unwrap();
        let loads = server.stats().live_loads;

        let before = db.stats();
        assert_eq!(b.subscribe(name).unwrap(), doc);
        let after = db.stats();
        assert_eq!(b.text(doc).unwrap().chars().count(), chars);
        assert_eq!(server.stats().live_loads, loads, "{name} was loaded again");
        costs.push((
            after.rows_scanned - before.rows_scanned,
            after.index_lookups - before.index_lookups,
            after.point_gets - before.point_gets,
            after.commits - before.commits,
        ));
    }
    assert_eq!(costs[0], costs[1], "(rows, index, gets, commits)");
    let (rows, _, _, commits) = costs[0];
    assert!(rows < 10, "{rows} rows scanned by a second open");
    assert_eq!(commits, 1, "one read event");
    assert_eq!(server.stats().live_loads, 2);
}

/// Life cycle. A document is live from its first subscription to its
/// last, however the last one ends; the next subscriber loads it again.
#[test]
fn last_subscriber_out_drops_the_live_document() {
    let (server, collab) = serve(&["alice", "bob"], &["doc"]);
    let addr = server.local_addr();
    let id = collab.textdb().document_by_name("doc").unwrap();
    assert_eq!(server.stats().live_documents, 0);

    let a = NetClient::connect(addr, "alice").unwrap();
    let b = NetClient::connect(addr, "bob").unwrap();
    let doc = a.subscribe("doc").unwrap();
    b.subscribe("doc").unwrap();
    a.insert(doc, 0, "kept in the database").unwrap();
    let stats = server.stats();
    assert_eq!((stats.live_documents, stats.live_loads), (1, 1));
    assert_eq!(collab.editors_on(id).len(), 2);

    // One leaves by unsubscribing (a ping is answered after it) …
    a.unsubscribe(doc).unwrap();
    a.ping().unwrap();
    assert_eq!(server.stats().live_documents, 1);
    assert_eq!(collab.editors_on(id).len(), 1);
    // … the last by losing its connection.
    drop(b);
    eventually("the killed connection lets go", || {
        server.stats().live_documents == 0
    });
    eventually("its presence is cleared", || {
        collab.editors_on(id).is_empty()
    });
    assert!(collab
        .live()
        .snapshot(id, UserId(1), encode_snapshot)
        .unwrap()
        .is_none());

    a.subscribe("doc").unwrap();
    assert_eq!(a.text(doc).unwrap(), "kept in the database");
    let stats = server.stats();
    assert_eq!((stats.live_documents, stats.live_loads), (1, 2));
    assert_eq!(stats.snapshots_served, 3);
}
