//! Wire-codec conformance: every frame type round-trips through
//! encode → FrameBuffer → decode, and every class of malformed input
//! yields a typed error — never a panic, never a silent misparse.
//! `any_snapshot_round_trips_through_the_run_coder` and
//! `any_delta_and_subscription_round_trip` are proptests: they print
//! `PROPTEST_SEED=<n>` on failure.

use std::collections::HashSet;

use proptest::prelude::*;
use tendax_collab::{CollabServer, DocEvent, Platform};
use tendax_net::protocol::{encode_event, encode_join, encode_snapshot};
use tendax_net::{
    codes, Conn, EditOp, Frame, FrameBuffer, Hub, MirrorDoc, NetConfig, NetError, Step, WireChar,
    WireEvent, WirePresence, PROTOCOL_VERSION,
};
use tendax_text::{CharId, DocId, Effect, StyleId, TextDb, UserId};

/// One exemplar of every frame variant, with awkward values: empty and
/// non-ASCII strings, `None`/`Some` options, empty and multi-element
/// vectors, extreme integers.
fn exemplars() -> Vec<Frame> {
    let effects = vec![
        Effect::Insert {
            char: CharId(42),
            prev: None,
            ch: '𝄞',
            author: UserId(7),
            ts: -3,
            style: StyleId(2),
            src_doc: DocId(9),
            src_char: CharId(41),
            external: Some("clipboard://x".into()),
        },
        Effect::Insert {
            char: CharId(43),
            prev: Some(CharId(42)),
            ch: 'b',
            author: UserId(7),
            ts: 4,
            style: StyleId::NONE,
            src_doc: DocId::NONE,
            src_char: CharId::NONE,
            external: None,
        },
        Effect::Delete {
            char: CharId(42),
            by: UserId(8),
            ts: i64::MAX,
        },
        Effect::Undelete { char: CharId(42) },
        Effect::SetStyle {
            char: CharId(43),
            old: StyleId(2),
            new: StyleId(3),
        },
    ];
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            user: "alicé".into(),
            platform: "Windows XP".into(),
            token: String::new(),
        },
        Frame::Welcome { session: u64::MAX },
        Frame::Error {
            code: codes::SLOW_CONSUMER,
            message: "déconnecté".into(),
        },
        Frame::Subscribe {
            request: 5,
            name: "minutes".into(),
            resume: None,
        },
        Frame::Subscribe {
            request: 6,
            name: "mïnutes".into(),
            resume: Some((3, u64::MAX)),
        },
        Frame::Snapshot {
            request: 5,
            doc: 3,
            synced_ts: 77,
            chars: vec![
                WireChar {
                    id: 1,
                    ch: 'a',
                    deleted: false,
                    style: 0,
                },
                WireChar {
                    id: 2,
                    ch: '∂',
                    deleted: true,
                    style: 5,
                },
                WireChar {
                    id: 3,
                    ch: '𝄞',
                    deleted: true,
                    style: 5,
                },
                WireChar {
                    id: u64::MAX,
                    ch: 'é',
                    deleted: false,
                    style: u64::MAX,
                },
            ],
        },
        Frame::Snapshot {
            request: 0,
            doc: 4,
            synced_ts: 0,
            chars: vec![],
        },
        Frame::Unsubscribe { doc: 3 },
        Frame::Edit {
            request: 1,
            doc: 3,
            op: EditOp::Insert {
                pos: 0,
                text: "héllo\nworld".into(),
            },
        },
        Frame::Edit {
            request: 2,
            doc: 3,
            op: EditOp::Delete { pos: 5, len: 2 },
        },
        Frame::EditOk {
            request: 2,
            op: 900,
            commit_ts: 901,
        },
        Frame::EditRejected {
            request: 3,
            message: "permission denied".into(),
        },
        Frame::Event(WireEvent {
            doc: 3,
            op: 900,
            commit_ts: 901,
            user: 7,
            origin: 12,
            kind: "insert".into(),
            effects: effects.clone(),
        }),
        Frame::Event(WireEvent {
            doc: 3,
            op: 901,
            commit_ts: 902,
            user: 7,
            origin: 12,
            kind: String::new(),
            effects: vec![],
        }),
        Frame::Awareness {
            doc: 3,
            cursor: Some(14),
            selection: Some((3, 14)),
        },
        Frame::Awareness {
            doc: 3,
            cursor: None,
            selection: None,
        },
        Frame::PresenceQuery { doc: 3 },
        Frame::Presence {
            doc: 3,
            entries: vec![WirePresence {
                session: 12,
                user: 7,
                user_name: "alicé".into(),
                platform: "Mac OS X".into(),
                doc: Some(3),
                cursor: Some(14),
                selection: None,
                last_active: -1,
            }],
        },
        Frame::Ping { nonce: 0 },
        Frame::Pong { nonce: u64::MAX },
        Frame::Resync {
            request: u64::MAX,
            doc: 3,
        },
        Frame::Delta {
            request: 6,
            doc: 3,
            from: 77,
            synced_ts: 905,
            events: vec![
                WireEvent {
                    doc: 3,
                    op: 900,
                    commit_ts: 901,
                    user: 7,
                    origin: 12,
                    kind: "insert".into(),
                    effects: effects.clone(),
                },
                WireEvent {
                    doc: 3,
                    op: 901,
                    commit_ts: 902,
                    user: 7,
                    origin: 12,
                    kind: String::new(),
                    effects: vec![],
                },
            ],
        },
        Frame::Delta {
            request: 0,
            doc: 4,
            from: u64::MAX,
            synced_ts: u64::MAX,
            events: vec![],
        },
        Frame::Bye,
    ]
}

#[test]
fn every_frame_type_round_trips() {
    for frame in exemplars() {
        let bytes = frame.encode();
        let mut fb = FrameBuffer::default();
        fb.extend(&bytes);
        let (tag, payload) = fb
            .try_frame()
            .expect("framing")
            .expect("one complete frame");
        assert_eq!(tag, frame.tag());
        let decoded = Frame::decode(tag, &payload).expect("decode");
        assert_eq!(decoded, frame, "round-trip mismatch for tag 0x{tag:02x}");
        assert_eq!(fb.try_frame().unwrap(), None, "no trailing frame");
    }
}

#[test]
fn frames_survive_arbitrary_stream_fragmentation() {
    // All exemplars concatenated, delivered in 7-byte slivers.
    let mut wire = Vec::new();
    for f in exemplars() {
        wire.extend_from_slice(&f.encode());
    }
    let mut fb = FrameBuffer::default();
    let mut decoded = Vec::new();
    for chunk in wire.chunks(7) {
        fb.extend(chunk);
        while let Some((tag, payload)) = fb.try_frame().unwrap() {
            decoded.push(Frame::decode(tag, &payload).unwrap());
        }
    }
    assert_eq!(decoded, exemplars());
}

#[test]
fn truncated_payloads_are_typed_errors_for_every_frame() {
    for frame in exemplars() {
        let bytes = frame.encode();
        let payload = &bytes[5..]; // strip [len][tag]
        if payload.is_empty() {
            continue; // Bye has no payload to truncate
        }
        // Chop the payload at every possible point; decode must return
        // an error (truncation or a bad-payload artifact of the cut),
        // never panic, and never accept the mutilated payload.
        for cut in 0..payload.len() {
            match Frame::decode(frame.tag(), &payload[..cut]) {
                Err(
                    NetError::Truncated { .. }
                    | NetError::BadPayload { .. }
                    | NetError::Protocol(_),
                ) => {}
                Ok(f) => panic!(
                    "tag 0x{:02x} cut at {cut}/{} decoded as {f:?}",
                    frame.tag(),
                    payload.len()
                ),
                Err(e) => panic!("tag 0x{:02x} cut at {cut}: unexpected {e:?}", frame.tag()),
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected_for_every_frame() {
    for frame in exemplars() {
        let bytes = frame.encode();
        let mut payload = bytes[5..].to_vec();
        payload.push(0xAA);
        match Frame::decode(frame.tag(), &payload) {
            Err(NetError::BadPayload { .. } | NetError::Truncated { .. }) => {}
            other => panic!(
                "tag 0x{:02x} accepted trailing byte: {other:?}",
                frame.tag()
            ),
        }
    }
}

#[test]
fn unknown_tag_is_a_typed_error() {
    for tag in [0x00u8, 0x13, 0x7F, 0xFF] {
        match Frame::decode(tag, &[]) {
            Err(NetError::UnknownTag(t)) => assert_eq!(t, tag),
            other => panic!("tag 0x{tag:02x}: {other:?}"),
        }
    }
}

#[test]
fn hostile_length_prefixes_kill_the_stream_with_typed_errors() {
    // Oversized: rejected before allocation.
    let mut fb = FrameBuffer::default();
    fb.extend(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        fb.try_frame(),
        Err(NetError::FrameTooLarge { .. })
    ));

    // Zero length: the tag byte is mandatory.
    let mut fb = FrameBuffer::default();
    fb.extend(&0u32.to_le_bytes());
    assert!(matches!(fb.try_frame(), Err(NetError::EmptyFrame)));
}

#[test]
fn mid_frame_cut_never_yields_a_frame() {
    // A partial frame in the buffer (stream ended mid-frame) is simply
    // "no frame yet"; the connection-level EOF turns it into Closed.
    let bytes = Frame::Subscribe {
        request: 1,
        name: "minutes".into(),
        resume: None,
    }
    .encode();
    for cut in 0..bytes.len() {
        let mut fb = FrameBuffer::default();
        fb.extend(&bytes[..cut]);
        assert_eq!(fb.try_frame().unwrap(), None, "cut at {cut}");
    }
}

// ------------------------------------------------- the one-pass snapshot path

/// A run as the wire spells it: first id, length, deleted byte, style.
type Run = (u64, u32, u8, u64);

/// A `Snapshot` payload spelled by hand: the header, the run table, the
/// text behind its length.
fn spell(request: u64, doc: u64, synced_ts: u64, chars: u32, runs: &[Run], text: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&request.to_le_bytes());
    p.extend_from_slice(&doc.to_le_bytes());
    p.extend_from_slice(&synced_ts.to_le_bytes());
    p.extend_from_slice(&chars.to_le_bytes());
    p.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for &(first, len, deleted, style) in runs {
        p.extend_from_slice(&first.to_le_bytes());
        p.extend_from_slice(&len.to_le_bytes());
        p.push(deleted);
        p.extend_from_slice(&style.to_le_bytes());
    }
    p.extend_from_slice(&(text.len() as u32).to_le_bytes());
    p.extend_from_slice(text);
    p
}

/// The runs a snapshot of `chars` lists, grouped here without the
/// codec: a character continues a run when its id is the next one and
/// its flag and style are the run's.
fn runs_of(chars: &[WireChar]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for c in chars {
        match runs.last_mut() {
            Some((first, len, deleted, style))
                if first.checked_add(u64::from(*len)) == Some(c.id)
                    && *deleted == c.deleted as u8
                    && *style == c.style =>
            {
                *len += 1
            }
            _ => runs.push((c.id, 1, c.deleted as u8, c.style)),
        }
    }
    runs
}

fn snapshot_tag() -> u8 {
    Frame::Snapshot {
        request: 0,
        doc: 0,
        synced_ts: 0,
        chars: vec![],
    }
    .tag()
}

/// The server writes a snapshot straight from an open document and the
/// client reads it straight into a mirror; both must speak exactly the
/// `Frame::Snapshot` encoding, byte for byte.
#[test]
fn snapshot_of_an_open_document_is_the_frame_encoding() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("u").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    h.insert_text(0, "snap∂hot 𝄞").unwrap();
    h.delete_range(2, 3).unwrap(); // tombstones travel too
    h.insert_text(1, "!").unwrap();
    let h = tdb.open(doc, user).unwrap();

    let mut chars = Vec::new();
    h.for_each_char(|id, info| {
        chars.push(WireChar {
            id: id.0,
            ch: info.ch,
            deleted: info.deleted,
            style: info.style.0,
        })
    });
    assert_eq!(chars.len(), 11);
    assert_eq!(chars.iter().filter(|c| c.deleted).count(), 3);

    let bytes = encode_snapshot(&h, 9);
    let as_frame = Frame::Snapshot {
        request: 9,
        doc: doc.0,
        synced_ts: h.synced_ts(),
        chars: chars.clone(),
    };
    assert_eq!(bytes, as_frame.encode());

    // The layout itself, spelled out, so neither encoder can drift: the
    // insert in the middle and the tombstones cut the ids into runs.
    let runs = runs_of(&chars);
    assert!((2..chars.len()).contains(&runs.len()), "{runs:?}");
    let text: String = chars.iter().map(|c| c.ch).collect();
    let payload = spell(9, doc.0, h.synced_ts(), 11, &runs, text.as_bytes());
    assert_eq!(payload.len(), 32 + 21 * runs.len() + 4 + text.len());
    let mut spelled = Vec::new();
    spelled.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
    spelled.push(as_frame.tag());
    spelled.extend_from_slice(&payload);
    assert_eq!(bytes, spelled);

    let mirror = MirrorDoc::from_snapshot_payload(&bytes[5..]).unwrap();
    assert_eq!(mirror.doc(), doc.0);
    assert_eq!(mirror.synced_ts(), h.synced_ts());
    assert_eq!(mirror.text(), h.text());
    assert_eq!(mirror.chars().collect::<Vec<_>>(), chars);
    assert_eq!(
        Frame::decode(as_frame.tag(), &bytes[5..]).unwrap(),
        as_frame
    );
}

/// The publisher encodes a broadcast straight from the `DocEvent`; the
/// wire must not be able to tell: byte for byte the `Frame::Event`
/// encoding of the same event, for every event among the exemplars.
#[test]
fn broadcast_of_a_doc_event_is_the_frame_encoding() {
    let mut events = 0;
    for frame in exemplars() {
        let Frame::Event(wire) = &frame else { continue };
        let ev = DocEvent::from(wire.clone());
        assert_eq!(encode_event(&ev), frame.encode());
        // What a live document's tail weighs its events by.
        assert_eq!(encode_event(&ev).len(), 5 + ev.wire_len());
        assert_eq!(WireEvent::from(&ev), *wire);
        events += 1;
    }
    assert_eq!(events, 2);
}

/// The server writes a `Delta` straight from a live document's tail; it
/// must be the `Frame::Delta` encoding of the same events, byte for byte,
/// and resume a mirror to what a snapshot at its frontier shows.
#[test]
fn delta_of_a_live_document_is_the_frame_encoding() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("u").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let collab = CollabServer::new(tdb);
    let session = collab.connect("u", Platform::Linux).unwrap();
    let mut editor = session.open_id(doc).unwrap();
    // Room in the tail: it holds as many bytes of events as the document
    // has characters.
    let filler = ".".repeat(400);
    editor.type_text(0, &filler).unwrap();
    editor.type_text(0, "delta∂ 𝄞").unwrap();
    let join = |from| {
        let live = collab.live();
        let encoded = live.join(doc, user, from, |at| {
            let events: Vec<WireEvent> = match at.delta() {
                Some((_, events)) => events.map(WireEvent::from).collect(),
                None => Vec::new(),
            };
            (encode_join(at, 4), at.synced_ts(), events)
        });
        encoded.unwrap().expect("live")
    };
    let (snapshot, from, _) = join(None);
    let kept = MirrorDoc::from_snapshot_payload(&snapshot[5..]).unwrap();
    editor.type_text(2, "!").unwrap();
    editor.delete(0, 3).unwrap();
    let (bytes, synced_ts, events) = join(Some(from));
    assert_eq!(events.len(), 2);
    let as_frame = Frame::Delta {
        request: 4,
        doc: doc.0,
        from,
        synced_ts,
        events: events.clone(),
    };
    assert_eq!(bytes, as_frame.encode());
    // The layout: the header, then each event's payload as it travels
    // alone.
    let mut spelled = Vec::new();
    for v in [4, doc.0, from, synced_ts] {
        spelled.extend_from_slice(&v.to_le_bytes());
    }
    spelled.extend_from_slice(&2u32.to_le_bytes());
    for ev in &events {
        spelled.extend_from_slice(&Frame::Event(ev.clone()).encode()[5..]);
    }
    assert_eq!(bytes[5..], spelled);

    let mut resumed = kept;
    resumed.apply_delta(doc.0, from, synced_ts, events).unwrap();
    let (fresh, _, _) = join(None);
    let fresh = MirrorDoc::from_snapshot_payload(&fresh[5..]).unwrap();
    assert_eq!(
        resumed.chars().collect::<Vec<_>>(),
        fresh.chars().collect::<Vec<_>>()
    );
    let text = format!("lta∂ 𝄞{filler}");
    assert_eq!((resumed.synced_ts(), resumed.text()), (synced_ts, text));
}

/// A `Delta` whose events name another document, or whose `from` is past
/// its `synced_ts`, is a typed `BadPayload`: no mirror could resume from
/// it.
#[test]
fn hostile_deltas_are_typed_errors() {
    let event = |doc| WireEvent {
        doc,
        op: 1,
        commit_ts: 5,
        user: 1,
        origin: 1,
        kind: "insert".into(),
        effects: vec![],
    };
    let delta = |from, synced_ts, events| Frame::Delta {
        request: 1,
        doc: 3,
        from,
        synced_ts,
        events,
    };
    let cases = [
        (delta(4, 9, vec![event(3), event(4)]), "document 4"),
        (delta(10, 9, vec![]), "past synced_ts"),
    ];
    for (frame, why) in cases {
        let bytes = frame.encode();
        match Frame::decode(frame.tag(), &bytes[5..]) {
            Err(NetError::BadPayload { tag, reason }) => {
                assert_eq!(tag, frame.tag());
                assert!(reason.contains(why), "{reason}");
            }
            other => panic!("{frame:?} decoded as {other:?}"),
        }
    }
}

/// A client of protocol version 2 — its `Subscribe` offers no kept mirror
/// and it knows no `Delta` — is refused at the handshake with `AUTH`.
#[test]
fn a_version_2_hello_is_refused_with_auth() {
    assert_eq!(PROTOCOL_VERSION, 3);
    let tdb = TextDb::in_memory();
    tdb.create_user("alice").unwrap();
    let hub = Hub::new(CollabServer::new(tdb), NetConfig::default());
    let conn = Conn::new(&hub);
    let hello = Frame::Hello {
        version: 2,
        user: "alice".into(),
        platform: "Linux".into(),
        token: String::new(),
    };
    assert_eq!(conn.on_frame(&hub, hello).0, Step::Closed);
    let mut out = Vec::new();
    assert!(!conn.drain(&hub, &mut out));
    let mut buf = FrameBuffer::default();
    buf.extend(&out[0]);
    let (tag, payload) = buf.next_frame().unwrap().expect("one whole frame");
    match Frame::decode(tag, payload) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, codes::AUTH);
            assert!(message.contains("version 2"), "{message}");
        }
        other => panic!("a version 2 hello got {other:?}"),
    }
}

/// `payload` is refused by the frame decoder and by a mirror, as a bad
/// `Snapshot` whose reason mentions `why`.
fn refused(what: &str, payload: &[u8], why: &str) {
    let tag = snapshot_tag();
    for (by, got) in [
        ("decode", Frame::decode(tag, payload).map(drop)),
        (
            "mirror",
            MirrorDoc::from_snapshot_payload(payload).map(drop),
        ),
    ] {
        match got {
            Err(NetError::BadPayload { tag: t, reason }) if t == tag => {
                assert!(reason.contains(why), "{what} ({by}): {reason:?}")
            }
            other => panic!("{what} ({by}): {other:?}"),
        }
    }
}

/// Whatever is wrong with a snapshot payload, loading it into a mirror is
/// a typed error — never a panic, a huge allocation or a half-built
/// replica.
#[test]
fn mutilated_snapshot_payloads_never_load_a_mirror() {
    // Four runs of one character each: ids 1..=4, every other deleted.
    let good = Frame::Snapshot {
        request: 0,
        doc: 3,
        synced_ts: 77,
        chars: (1..=4)
            .map(|id| WireChar {
                id,
                ch: 'x',
                deleted: id % 2 == 0,
                style: 0,
            })
            .collect(),
    }
    .encode()[5..]
        .to_vec();
    assert_eq!(
        MirrorDoc::from_snapshot_payload(&good).unwrap().text(),
        "xx"
    );
    let (chars_at, runs_at, table, text_at) = (24, 28, 32, 32 + 4 * 21);
    assert_eq!(good.len(), text_at + 4 + 4);

    for cut in 0..good.len() {
        match MirrorDoc::from_snapshot_payload(&good[..cut]) {
            Err(NetError::Truncated { .. }) => {}
            other => panic!("cut at {cut}/{}: {other:?}", good.len()),
        }
    }
    let patched = |at: usize, bytes: &[u8]| {
        let mut p = good.clone();
        p[at..at + bytes.len()].copy_from_slice(bytes);
        p
    };
    refused(
        "trailing byte",
        &[good.as_slice(), &[0xAA]].concat(),
        "trailing",
    );
    refused("deleted flag 2", &patched(table + 12, &[2]), "deleted flag");
    refused(
        "a run longer than the characters",
        &patched(table + 8, &2u32.to_le_bytes()),
        "runs hold",
    );
    refused(
        "a count of characters the runs do not hold",
        &patched(chars_at, &u32::MAX.to_le_bytes()),
        "runs hold",
    );
    refused("invalid UTF-8", &patched(text_at + 5, &[0xFF]), "utf-8");
    // The second run's id made the first's: a mirror would show it
    // twice, and a delete would flip one copy. The frame itself is
    // well-formed; only a mirror, which indexes ids, refuses it.
    let twice = patched(table + 21, &1u64.to_le_bytes());
    assert!(Frame::decode(snapshot_tag(), &twice).is_ok());
    match MirrorDoc::from_snapshot_payload(&twice) {
        Err(NetError::BadPayload { reason, .. }) => {
            assert!(reason.contains("character 1 appears twice"), "{reason}")
        }
        other => panic!("a character named twice: {other:?}"),
    }
    // A run count far beyond the bytes present is a truncation, not a
    // four-billion-run reservation.
    for payload in [&good, &twice] {
        let mut p = payload.clone();
        p[runs_at..runs_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        for got in [
            Frame::decode(snapshot_tag(), &p).map(drop),
            MirrorDoc::from_snapshot_payload(&p).map(drop),
        ] {
            match got {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("inflated run count: {other:?}"),
            }
        }
    }
}

/// Run tables no encoder writes, each refused typed by the decoder and
/// by a mirror.
#[test]
fn hostile_snapshot_run_tables_are_typed_errors() {
    let ok = spell(
        1,
        2,
        3,
        3,
        &[(10, 2, 0, 0), (40, 1, 1, 7)],
        "ab€".as_bytes(),
    );
    assert_eq!(MirrorDoc::from_snapshot_payload(&ok).unwrap().text(), "ab");
    let cases: [(&str, Vec<u8>, &str); 8] = [
        (
            "a zero-length run",
            spell(1, 2, 3, 2, &[(10, 2, 0, 0), (40, 0, 1, 7)], b"ab"),
            "empty",
        ),
        (
            "a run whose ids overflow u64",
            spell(1, 2, 3, 2, &[(u64::MAX, 2, 0, 0)], b"ab"),
            "overflow",
        ),
        (
            "run lengths below the character count",
            spell(1, 2, 3, 4, &[(10, 2, 0, 0), (40, 1, 1, 7)], b"abcd"),
            "runs hold",
        ),
        (
            "run lengths above the character count",
            spell(1, 2, 3, 2, &[(10, 2, 0, 0), (40, 1, 1, 7)], b"ab"),
            "runs hold",
        ),
        (
            "more runs than characters",
            spell(1, 2, 3, 1, &[(10, 1, 0, 0), (40, 1, 1, 7)], b"ab"),
            "2 runs for 1 characters",
        ),
        (
            "text shorter than the runs",
            spell(1, 2, 3, 3, &[(10, 2, 0, 0), (40, 1, 1, 7)], b"ab"),
            "text holds 2",
        ),
        (
            "text longer than the runs",
            spell(1, 2, 3, 3, &[(10, 2, 0, 0), (40, 1, 1, 7)], b"abcd"),
            "text holds 4",
        ),
        (
            "invalid UTF-8",
            spell(1, 2, 3, 3, &[(10, 2, 0, 0), (40, 1, 1, 7)], b"a\xC3b"),
            "utf-8",
        ),
    ];
    for (what, payload, why) in &cases {
        refused(what, payload, why);
    }

    // Two runs overlapping in ids — here the second starts inside the
    // first, in the table's last place, after a run in between: the
    // decoder passes them on, a mirror refuses them.
    let overlap = spell(
        1,
        2,
        3,
        6,
        &[(10, 3, 0, 0), (40, 1, 1, 7), (12, 2, 0, 0)],
        b"abcdef",
    );
    assert!(Frame::decode(snapshot_tag(), &overlap).is_ok());
    match MirrorDoc::from_snapshot_payload(&overlap) {
        Err(NetError::BadPayload { reason, .. }) => {
            assert!(reason.contains("character 12 appears twice"), "{reason}")
        }
        other => panic!("overlapping runs: {other:?}"),
    }

    // A run count far beyond the bytes present, with a character count
    // to match: a truncation, before anything is sized by either.
    let inflated = spell(1, 2, 3, u32::MAX, &[(10, 2, 0, 0)], b"ab");
    let mut p = inflated.clone();
    p[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
    for got in [
        Frame::decode(snapshot_tag(), &p).map(drop),
        MirrorDoc::from_snapshot_payload(&p).map(drop),
    ] {
        match got {
            Err(NetError::Truncated { needed, .. }) => {
                assert_eq!(needed, u32::MAX as usize * 21)
            }
            other => panic!("inflated run count: {other:?}"),
        }
    }
}

// ------------------------------------------------------- snapshot proptest

/// A character of `bytes` UTF-8 bytes (1 to 4), picked by `n`.
fn char_of(bytes: u8, n: u32) -> char {
    let (lo, hi) = match bytes {
        1 => (0x20, 0x80),
        2 => (0x80, 0x800),
        3 => (0x800, 0x1_0000),
        _ => (0x1_0000, 0x11_0000),
    };
    let v = lo + n % (hi - lo);
    // Surrogates are not characters: step over them.
    char::from_u32(v).unwrap_or_else(|| char::from_u32(v + 0x800).unwrap())
}

/// Snapshots as stretches: each starts at a random id (edge-biased:
/// 0, 1 and `u64::MAX` come often) or right after the previous one, and
/// walks consecutive ids, its characters' flags and styles cycling
/// through a list — so a flag or a style changes mid-stretch, and a
/// stretch at `u64::MAX` stops there.
fn arb_chars() -> impl Strategy<Value = Vec<WireChar>> {
    let attrs = proptest::collection::vec((any::<bool>(), 0u64..3, 1u8..5, any::<u32>()), 1..6);
    let stretch = (proptest::option::of(any::<u64>()), 1u64..40, attrs);
    proptest::collection::vec(stretch, 0..10).prop_map(|stretches| {
        let mut chars: Vec<WireChar> = Vec::new();
        for (start, len, attrs) in stretches {
            let after = chars.last().and_then(|c| c.id.checked_add(1));
            let Some(first) = start.or(after) else {
                continue;
            };
            for k in 0..len {
                let Some(id) = first.checked_add(k) else {
                    break;
                };
                let (deleted, style, bytes, n) = attrs[k as usize % attrs.len()];
                chars.push(WireChar {
                    id,
                    ch: char_of(bytes, n),
                    deleted,
                    style: [0, 5, u64::MAX][style as usize],
                });
            }
        }
        chars
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any character list survives the run coder: encoded and decoded as
    /// a frame, and loaded into a mirror and read back, with exactly the
    /// runs [`runs_of`] groups; a list that names an id twice is a
    /// well-formed frame a mirror refuses. A mirror built from the list
    /// itself is the same mirror, and stays so under the same events.
    #[test]
    fn any_snapshot_round_trips_through_the_run_coder(
        chars in arb_chars(),
        request in any::<u64>(),
        steps in proptest::collection::vec((0u8..4, any::<usize>(), any::<u64>()), 0..24),
    ) {
        let frame = Frame::Snapshot { request, doc: 7, synced_ts: 9, chars: chars.clone() };
        let bytes = frame.encode();
        let payload = &bytes[5..];
        prop_assert_eq!(Frame::decode(frame.tag(), payload).unwrap(), frame.clone());
        let runs = runs_of(&chars);
        prop_assert_eq!(&payload[28..32], &(runs.len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(payload.len(), 32 + 21 * runs.len() + 4 + chars.iter().map(|c| c.ch.len_utf8()).sum::<usize>());

        let mut seen = HashSet::new();
        let unique = chars.iter().all(|c| seen.insert(c.id));
        let direct = MirrorDoc::new(7, 9, chars.clone());
        match MirrorDoc::from_snapshot_payload(payload) {
            Ok(mut m) => {
                prop_assert!(unique, "a mirror loaded a snapshot naming an id twice");
                prop_assert_eq!(m.chars().collect::<Vec<_>>(), chars.clone());
                prop_assert_eq!(m.len(), chars.iter().filter(|c| !c.deleted).count());
                let mut direct = direct.expect("the list itself loads");
                prop_assert_eq!(direct.len(), m.len());
                let mut fresh = chars.iter().map(|c| c.id).max().map_or(0, |id| id.wrapping_add(1));
                for (ts, (kind, at, style)) in (10..).zip(steps) {
                    let listed: Vec<WireChar> = m.chars().collect();
                    let picked = (!listed.is_empty()).then(|| CharId(listed[at % listed.len()].id));
                    let effect = match (kind, picked) {
                        (0, _) | (_, None) => {
                            while seen.contains(&fresh) {
                                fresh = fresh.wrapping_add(1);
                            }
                            seen.insert(fresh);
                            let prev = match at % (listed.len() + 1) {
                                0 => None,
                                k => Some(CharId(listed[k - 1].id)),
                            };
                            Effect::Insert {
                                char: CharId(fresh),
                                prev,
                                ch: 'n',
                                author: UserId(1),
                                ts: 0,
                                style: StyleId::NONE,
                                src_doc: DocId::NONE,
                                src_char: CharId::NONE,
                                external: None,
                            }
                        }
                        (1, Some(char)) => Effect::Delete { char, by: UserId(1), ts: 0 },
                        (2, Some(char)) => Effect::Undelete { char },
                        (_, Some(char)) => Effect::SetStyle { char, old: StyleId(0), new: StyleId(style) },
                    };
                    let ev = WireEvent {
                        doc: 7,
                        op: ts,
                        commit_ts: ts,
                        user: 1,
                        origin: 1,
                        kind: "step".into(),
                        effects: vec![effect],
                    };
                    prop_assert!(m.apply_event(ev.clone()).unwrap());
                    prop_assert!(direct.apply_event(ev).unwrap());
                    prop_assert_eq!(direct.chars().collect::<Vec<_>>(), m.chars().collect::<Vec<_>>());
                    prop_assert_eq!(direct.len(), m.len());
                }
            }
            Err(NetError::BadPayload { .. }) => {
                prop_assert!(!unique, "a sound snapshot refused");
                prop_assert!(matches!(direct, Err(NetError::BadPayload { .. })), "{:?}", direct);
            }
            Err(e) => prop_assert!(false, "unexpected {:?}", e),
        }
    }
}

// ---------------------------------------------- delta and subscribe proptest

/// Any effect, with edge values in its ids and optional fields.
fn arb_effect() -> impl Strategy<Value = Effect> {
    let id = prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()];
    let insert = (
        id.clone(),
        proptest::option::of(id.clone()),
        (1u8..5, any::<u32>()),
        (
            any::<u64>(),
            any::<i64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        proptest::option::of(".{0,12}"),
    )
        .prop_map(
            |(char, prev, (bytes, n), (author, ts, style, src_doc, src_char), external)| {
                Effect::Insert {
                    char: CharId(char),
                    prev: prev.map(CharId),
                    ch: char_of(bytes, n),
                    author: UserId(author),
                    ts,
                    style: StyleId(style),
                    src_doc: DocId(src_doc),
                    src_char: CharId(src_char),
                    external,
                }
            },
        );
    prop_oneof![
        insert,
        (id.clone(), any::<u64>(), any::<i64>()).prop_map(|(char, by, ts)| Effect::Delete {
            char: CharId(char),
            by: UserId(by),
            ts,
        }),
        id.clone()
            .prop_map(|char| Effect::Undelete { char: CharId(char) }),
        (id, any::<u64>(), any::<u64>()).prop_map(|(char, old, new)| Effect::SetStyle {
            char: CharId(char),
            old: StyleId(old),
            new: StyleId(new),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any `Delta` — events of every effect kind, any kind strings, any
    /// frontiers with `from ≤ synced_ts` — and any `Subscribe`, with or
    /// without a kept mirror, survive encode and decode; a delta is its
    /// header and its events' payloads, each weighing what
    /// [`DocEvent::wire_len`] says.
    #[test]
    fn any_delta_and_subscription_round_trip(
        header in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        events in proptest::collection::vec(
            ((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), ".{0,8}",
             proptest::collection::vec(arb_effect(), 0..5)),
            0..6,
        ),
        name in ".{0,16}",
        resume in proptest::option::of((any::<u64>(), any::<u64>())),
    ) {
        let (request, doc, from, span) = header;
        let events: Vec<WireEvent> = events
            .into_iter()
            .map(|((op, commit_ts, user, origin), kind, effects)| WireEvent {
                doc, op, commit_ts, user, origin, kind, effects,
            })
            .collect();
        let weights: Vec<usize> = events
            .iter()
            .map(|ev| DocEvent::from(ev.clone()).wire_len())
            .collect();
        for (ev, &weight) in events.iter().zip(&weights) {
            let alone = Frame::Event(ev.clone()).encode();
            prop_assert_eq!(alone.len(), 5 + weight);
        }
        let synced_ts = from.saturating_add(span);
        let frame = Frame::Delta { request, doc, from, synced_ts, events };
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), 5 + 36 + weights.iter().sum::<usize>());
        prop_assert_eq!(Frame::decode(frame.tag(), &bytes[5..]).unwrap(), frame);

        let subscribe = Frame::Subscribe { request, name, resume };
        let bytes = subscribe.encode();
        prop_assert_eq!(Frame::decode(subscribe.tag(), &bytes[5..]).unwrap(), subscribe);
    }
}
