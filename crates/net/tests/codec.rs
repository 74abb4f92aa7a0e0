//! Wire-codec conformance: every frame type round-trips through
//! encode → FrameBuffer → decode, and every class of malformed input
//! yields a typed error — never a panic, never a silent misparse.

use tendax_net::protocol::{encode_event, encode_snapshot};
use tendax_net::{
    codes, EditOp, Frame, FrameBuffer, MirrorDoc, NetError, WireChar, WireEvent, WirePresence,
    PROTOCOL_VERSION,
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
            name: "minutes".into(),
        },
        Frame::Snapshot {
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
            ],
        },
        Frame::Snapshot {
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
            effects,
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
        Frame::Resync { doc: 3 },
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
    for tag in [0x00u8, 0x12, 0x7F, 0xFF] {
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
        name: "minutes".into(),
    }
    .encode();
    for cut in 0..bytes.len() {
        let mut fb = FrameBuffer::default();
        fb.extend(&bytes[..cut]);
        assert_eq!(fb.try_frame().unwrap(), None, "cut at {cut}");
    }
}

// ------------------------------------------------- the one-pass snapshot path

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

    let bytes = encode_snapshot(&h);
    let as_frame = Frame::Snapshot {
        doc: doc.0,
        synced_ts: h.synced_ts(),
        chars: chars.clone(),
    };
    assert_eq!(bytes, as_frame.encode());

    // The layout itself, spelled out, so neither encoder can drift.
    let mut spelled = Vec::new();
    spelled.extend_from_slice(&((1 + 20 + 21 * chars.len()) as u32).to_le_bytes());
    spelled.push(as_frame.tag());
    spelled.extend_from_slice(&doc.0.to_le_bytes());
    spelled.extend_from_slice(&h.synced_ts().to_le_bytes());
    spelled.extend_from_slice(&(chars.len() as u32).to_le_bytes());
    for c in &chars {
        spelled.extend_from_slice(&c.id.to_le_bytes());
        spelled.extend_from_slice(&(c.ch as u32).to_le_bytes());
        spelled.push(c.deleted as u8);
        spelled.extend_from_slice(&c.style.to_le_bytes());
    }
    assert_eq!(bytes, spelled);

    let mirror = MirrorDoc::from_snapshot_payload(&bytes[5..]).unwrap();
    assert_eq!(mirror.doc(), doc.0);
    assert_eq!(mirror.synced_ts(), h.synced_ts());
    assert_eq!(mirror.text(), h.text());
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
        let ev = tendax_collab::DocEvent::from(wire.clone());
        assert_eq!(encode_event(&ev), frame.encode());
        assert_eq!(WireEvent::from(&ev), *wire);
        events += 1;
    }
    assert_eq!(events, 2);
}

/// Whatever is wrong with a snapshot payload, loading it into a mirror is
/// a typed error — never a panic, a huge allocation or a half-built
/// replica.
#[test]
fn mutilated_snapshot_payloads_never_load_a_mirror() {
    let good = Frame::Snapshot {
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
    let first_char = 8 + 8 + 4;
    let snapshot_tag = Frame::Snapshot {
        doc: 0,
        synced_ts: 0,
        chars: vec![],
    }
    .tag();
    for (what, payload) in [
        ("trailing byte", [good.as_slice(), &[0xAA]].concat()),
        ("deleted flag 2", patched(first_char + 12, &[2])),
        (
            "surrogate scalar",
            patched(first_char + 8, &0xD800u32.to_le_bytes()),
        ),
        // The second character's id made the first's: a mirror would
        // show it twice, and a delete would flip one copy.
        (
            "a character named twice",
            patched(first_char + 21, &1u64.to_le_bytes()),
        ),
    ] {
        match MirrorDoc::from_snapshot_payload(&payload) {
            Err(NetError::BadPayload { tag, .. }) if tag == snapshot_tag => {}
            other => panic!("{what}: {other:?}"),
        }
    }
    // A count far beyond the bytes present is a truncation, not a
    // four-billion-slot reservation.
    match MirrorDoc::from_snapshot_payload(&patched(16, &u32::MAX.to_le_bytes())) {
        Err(NetError::Truncated { .. }) => {}
        other => panic!("inflated count: {other:?}"),
    }
}
