//! Durable before visible: no connection is handed an `Event` before its
//! commit is on disk.
//!
//! A database on a simulated disk at `DurabilityLevel::Fsync`, one hub
//! and two connections, a typist's and a watcher's, subscribed to one
//! document, all in one thread. An edit that lands reaches the watcher.
//! Then the next sync of the log fails: the typist's next edit is visible
//! in the live document but never durable, so the typist is answered
//! `EditRejected` and no connection is ever handed that commit's `Event`.
//! A `Resync` still brings the watcher's mirror to the live document.
//!
//! The live document's tail stops vouching for anything up to the refused
//! commit once its ticket is withdrawn: a mirror kept from before it —
//! the watcher's, before its resync — is answered by a snapshot, one from
//! after it by a delta, and no `Delta` carries the refused commit.
//!
//! A read event is the one commit nobody is told is durable: a
//! `Subscribe`, and a `TextDb::open`, write nothing to the log and sync
//! nothing; the next edit's flush carries the read with it.

use std::sync::Arc;

use tendax_collab::CollabServer;
use tendax_net::protocol::encode_join;
use tendax_net::{Bytes, Conn, EditOp, Frame, FrameBuffer, Hub, MirrorDoc, NetConfig};
use tendax_storage::{Database, DurabilityLevel, Options, SimVfs, Syncs, WalShardStats};
use tendax_text::{DocId, TextDb};

/// Everything `conn` hands out, decoded.
fn handed_out(hub: &Hub, conn: &Conn) -> Vec<Frame> {
    let mut out: Vec<Bytes> = Vec::new();
    assert!(conn.drain(hub, &mut out), "the connection closed");
    let decode = |bytes: &Bytes| {
        let mut buf = FrameBuffer::default();
        buf.extend(bytes);
        let (tag, payload) = buf.next_frame().unwrap().expect("one whole frame");
        Frame::decode(tag, payload).unwrap()
    };
    out.iter().map(decode).collect()
}

/// Feed `frames` to a mirror: a snapshot replaces it, an event is applied,
/// the `Welcome` is passed over.
fn mirror(mirror: &mut Option<MirrorDoc>, frames: Vec<Frame>) {
    for frame in frames {
        match frame {
            Frame::Snapshot {
                doc,
                synced_ts,
                chars,
                ..
            } => *mirror = Some(MirrorDoc::new(doc, synced_ts, chars).unwrap()),
            Frame::Event(ev) => {
                let mirror = mirror.as_mut().expect("a snapshot first");
                assert!(mirror.apply_event(ev).unwrap());
            }
            Frame::Welcome { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A text database on a simulated disk at `DurabilityLevel::Fsync`.
fn durable_textdb(vfs: &SimVfs) -> TextDb {
    let options = Options {
        durability: DurabilityLevel::Fsync,
        vfs: Arc::new(vfs.clone()),
        ..Options::default()
    };
    TextDb::init(Database::open("/sim/events.wal", options).unwrap()).unwrap()
}

/// A connection past its handshake as `user`.
fn connect(hub: &Hub, user: &str) -> Conn {
    let conn = Conn::new(hub);
    let hello = Frame::Hello {
        version: tendax_net::PROTOCOL_VERSION,
        user: user.into(),
        platform: "Linux".into(),
        token: String::new(),
    };
    conn.on_frame(hub, hello);
    conn
}

#[test]
fn an_edit_that_never_became_durable_is_never_broadcast() {
    let vfs = SimVfs::new(7);
    let tdb = durable_textdb(&vfs);
    let alice = tdb.create_user("alice").unwrap();
    tdb.create_user("bob").unwrap();
    let doc = tdb.create_document("doc", alice).unwrap();
    // Room in the live document's tail: it holds as many bytes of events
    // as the document has characters.
    let filler = "·".repeat(1_000);
    tdb.open(doc, alice)
        .unwrap()
        .insert_text(0, &filler)
        .unwrap();
    let doc = doc.0;
    let collab = CollabServer::new(tdb);
    let hub = Hub::new(collab.clone(), NetConfig::default());
    let [typist, watcher] = ["alice", "bob"].map(|user| {
        let conn = connect(&hub, user);
        conn.on_frame(
            &hub,
            Frame::Subscribe {
                request: 1,
                name: "doc".into(),
                resume: None,
            },
        );
        conn
    });
    handed_out(&hub, &typist);
    let mut watched = None;
    mirror(&mut watched, handed_out(&hub, &watcher));
    let edit = |request, text: &str| {
        let op = EditOp::Insert {
            pos: 0,
            text: text.into(),
        };
        let (_, broadcast) = typist.on_frame(&hub, Frame::Edit { request, doc, op });
        broadcast.publish();
        handed_out(&hub, &typist)
    };

    let landed = edit(2, "kept ");
    assert!(
        matches!(landed[..], [Frame::EditOk { .. }, Frame::Event(_)]),
        "{landed:?}"
    );
    mirror(&mut watched, handed_out(&hub, &watcher));
    assert_eq!(watched.as_ref().unwrap().text(), format!("kept {filler}"));

    let before = watched.as_ref().unwrap().synced_ts();
    vfs.fail_next_syncs(1);
    let refused = edit(3, "lost ");
    let refused_ts = collab.textdb().database().last_commit_ts();
    assert!(
        matches!(refused[..], [Frame::EditRejected { .. }]),
        "{refused:?}"
    );
    let watched_frames = handed_out(&hub, &watcher);
    assert!(watched_frames.is_empty(), "{watched_frames:?}");

    // The commit is visible in the live document, so a snapshot has it.
    watcher.on_frame(&hub, Frame::Resync { request: 2, doc });
    mirror(&mut watched, handed_out(&hub, &watcher));
    let live = collab.live().snapshot(DocId(doc), alice, |h| h.text());
    let text = format!("lost kept {filler}");
    assert_eq!(live.unwrap().unwrap(), text);
    assert_eq!(watched.unwrap().text(), text);
    assert!(handed_out(&hub, &typist).is_empty());

    // What a mirror kept at `from` is answered: the log is poisoned now,
    // so no open can record its read, but the answer is the one a
    // re-open or a recovery gets.
    let answer = |from| {
        let join = collab.live().join(DocId(doc), alice, Some(from), |at| {
            let bytes = encode_join(at, 0);
            Frame::decode(bytes[4], &bytes[5..]).unwrap()
        });
        join.unwrap().expect("live")
    };
    assert!(before < refused_ts);
    let kept = answer(before);
    assert!(matches!(kept, Frame::Snapshot { .. }), "{kept:?}");
    let after = collab.live().snapshot(DocId(doc), alice, |h| h.synced_ts());
    match answer(after.unwrap().unwrap()) {
        Frame::Delta { events, .. } => {
            assert!(
                events.iter().all(|ev| ev.commit_ts != refused_ts),
                "{events:?}"
            )
        }
        other => panic!("a mirror past the refused commit got {other:?}"),
    }
}

#[test]
fn a_read_event_rides_the_next_edits_flush() {
    let vfs = SimVfs::new(11);
    let tdb = durable_textdb(&vfs);
    let alice = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("doc", alice).unwrap();
    let collab = CollabServer::new(tdb.clone());
    let hub = Hub::new(collab, NetConfig::default());
    let conn = connect(&hub, "alice");
    handed_out(&hub, &conn);
    let wal = || tdb.database().wal_shard_stats()[0];
    let counts = || (vfs.ops(), vfs.syncs(), wal());
    let edit = |request, text: &str| {
        let op = EditOp::Insert {
            pos: 0,
            text: text.into(),
        };
        let (_, broadcast) = conn.on_frame(
            &hub,
            Frame::Edit {
                request,
                doc: doc.0,
                op,
            },
        );
        broadcast.publish();
        let landed = handed_out(&hub, &conn);
        assert!(
            matches!(landed[..], [Frame::EditOk { .. }, Frame::Event(_)]),
            "{landed:?}"
        );
    };
    // The edit after a read: one batch, the read's record and its own,
    // and one sync, of the data inside the log's room.
    let flushed_with_the_read = |before: (u64, Syncs, WalShardStats), what: &str| {
        let (_, syncs, stats) = counts();
        let flushed = (
            stats.batches_flushed - before.2.batches_flushed,
            stats.records_flushed - before.2.records_flushed,
            stats.fsyncs - before.2.fsyncs,
            syncs.data - before.1.data,
            syncs.all - before.1.all,
        );
        assert_eq!(
            flushed,
            (1, 2, 1, 1, 0),
            "{what}: batches, records, fsyncs, sync_data, sync_all"
        );
    };

    let before = counts();
    conn.on_frame(
        &hub,
        Frame::Subscribe {
            request: 1,
            name: "doc".into(),
            resume: None,
        },
    );
    let opened = handed_out(&hub, &conn);
    assert!(matches!(opened[..], [Frame::Snapshot { .. }]), "{opened:?}");
    assert_eq!(counts(), before, "a subscribe wrote to the log");
    edit(2, "a");
    flushed_with_the_read(before, "the edit after a subscribe");

    let before = counts();
    assert_eq!(tdb.open(doc, alice).unwrap().text(), "a");
    assert_eq!(counts(), before, "an open wrote to the log");
    edit(3, "b");
    flushed_with_the_read(before, "the edit after an open");
}
