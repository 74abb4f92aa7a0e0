//! Frame types of the TeNDaX wire protocol and their binary codec.
//!
//! One TCP connection carries a sequence of frames (see
//! [`crate::wire`] for the byte layout). The protocol is:
//!
//! ```text
//! client                              server
//!   | -- Hello{version,user,token} --> |       session hello / auth
//!   | <-- Welcome{session} ----------- |       (or Error + close)
//!   | -- Subscribe{name} ------------> |
//!   | <-- Snapshot{doc,ts,chars} ----- |       full chain incl. tombstones
//!   | -- Edit{req,doc,op} -----------> |
//!   | <-- EditOk{req,op,ts} ---------- |       (or EditRejected{req})
//!   | <-- Event{...} ----------------- |       committed-op broadcast, pushed
//!   | -- Awareness{doc,cursor,sel} --> |
//!   | -- PresenceQuery{doc} ---------> |
//!   | <-- Presence{doc,entries} ------ |
//!   | -- Ping{nonce} ----------------> |
//!   | <-- Pong{nonce} ---------------- |
//!   | -- Resync{doc} ----------------> |
//!   | <-- Snapshot{doc,ts,chars} ----- |       lag recovery
//!   | -- Unsubscribe{doc} / Bye -----> |
//! ```
//!
//! Decoding is total: any byte sequence either yields a frame or a
//! typed [`NetError`] — malformed input from the network can never
//! panic the process.

use tendax_collab::{DocEvent, Presence, SessionId};
use tendax_text::{CharId, DocHandle, DocId, Effect, OpId, StyleId, UserId};

use crate::error::{NetError, Result};
use crate::wire::{PayloadReader, PayloadWriter};

/// Protocol version sent in `Hello`; the server rejects a mismatch.
pub const PROTOCOL_VERSION: u16 = 1;

/// One character of a document snapshot (tombstones included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChar {
    pub id: u64,
    pub ch: char,
    pub deleted: bool,
    pub style: u64,
}

/// A committed operation on the wire — `DocEvent`, flattened to ids.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    pub doc: u64,
    pub op: u64,
    pub commit_ts: u64,
    pub user: u64,
    pub origin: u64,
    pub kind: String,
    pub effects: Vec<Effect>,
}

impl From<&DocEvent> for WireEvent {
    fn from(ev: &DocEvent) -> Self {
        WireEvent {
            doc: ev.doc.0,
            op: ev.op.0,
            commit_ts: ev.commit_ts,
            user: ev.user.0,
            origin: ev.origin.0,
            kind: ev.kind.clone(),
            effects: ev.effects.clone(),
        }
    }
}

impl From<WireEvent> for DocEvent {
    fn from(ev: WireEvent) -> Self {
        DocEvent {
            doc: DocId(ev.doc),
            op: OpId(ev.op),
            commit_ts: ev.commit_ts,
            user: UserId(ev.user),
            origin: SessionId(ev.origin),
            kind: ev.kind,
            effects: ev.effects,
        }
    }
}

/// One session's presence on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePresence {
    pub session: u64,
    pub user: u64,
    pub user_name: String,
    pub platform: String,
    pub doc: Option<u64>,
    pub cursor: Option<u64>,
    pub selection: Option<(u64, u64)>,
    pub last_active: i64,
}

impl From<&Presence> for WirePresence {
    fn from(p: &Presence) -> Self {
        WirePresence {
            session: p.session.0,
            user: p.user.0,
            user_name: p.user_name.clone(),
            platform: p.platform.to_string(),
            doc: p.doc.map(|d| d.0),
            cursor: p.cursor.map(|c| c as u64),
            selection: p.selection.map(|(a, b)| (a as u64, b as u64)),
            last_active: p.last_active,
        }
    }
}

/// An edit submitted over the wire. Positions address the client's view
/// at send time; the server re-validates against its current state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    Insert { pos: u64, text: String },
    Delete { pos: u64, len: u64 },
}

/// Every frame of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Hello {
        version: u16,
        user: String,
        platform: String,
        token: String,
    },
    Welcome {
        session: u64,
    },
    Error {
        code: u16,
        message: String,
    },
    Subscribe {
        name: String,
    },
    Snapshot {
        doc: u64,
        synced_ts: u64,
        chars: Vec<WireChar>,
    },
    Unsubscribe {
        doc: u64,
    },
    Edit {
        request: u64,
        doc: u64,
        op: EditOp,
    },
    EditOk {
        request: u64,
        op: u64,
        commit_ts: u64,
    },
    EditRejected {
        request: u64,
        message: String,
    },
    Event(WireEvent),
    Awareness {
        doc: u64,
        cursor: Option<u64>,
        selection: Option<(u64, u64)>,
    },
    PresenceQuery {
        doc: u64,
    },
    Presence {
        doc: u64,
        entries: Vec<WirePresence>,
    },
    Ping {
        nonce: u64,
    },
    Pong {
        nonce: u64,
    },
    Resync {
        doc: u64,
    },
    Bye,
}

// Frame tags. Gaps are reserved for future frames; an unknown tag is a
// typed decode error, not a crash.
const TAG_HELLO: u8 = 0x01;
const TAG_WELCOME: u8 = 0x02;
const TAG_ERROR: u8 = 0x03;
const TAG_SUBSCRIBE: u8 = 0x04;
pub(crate) const TAG_SNAPSHOT: u8 = 0x05;
const TAG_UNSUBSCRIBE: u8 = 0x06;
const TAG_EDIT: u8 = 0x07;
const TAG_EDIT_OK: u8 = 0x08;
const TAG_EDIT_REJECTED: u8 = 0x09;
const TAG_EVENT: u8 = 0x0A;
const TAG_AWARENESS: u8 = 0x0B;
const TAG_PRESENCE_QUERY: u8 = 0x0C;
const TAG_PRESENCE: u8 = 0x0D;
const TAG_PING: u8 = 0x0E;
const TAG_PONG: u8 = 0x0F;
const TAG_RESYNC: u8 = 0x10;
const TAG_BYE: u8 = 0x11;

const EFFECT_INSERT: u8 = 0;
const EFFECT_DELETE: u8 = 1;
const EFFECT_UNDELETE: u8 = 2;
const EFFECT_SET_STYLE: u8 = 3;

const EDIT_INSERT: u8 = 0;
const EDIT_DELETE: u8 = 1;

fn write_effect(w: &mut PayloadWriter, e: &Effect) {
    match e {
        Effect::Insert {
            char,
            prev,
            ch,
            author,
            ts,
            style,
            src_doc,
            src_char,
            external,
        } => {
            w.u8(EFFECT_INSERT);
            w.u64(char.0);
            w.opt_u64(prev.map(|p| p.0));
            w.chr(*ch);
            w.u64(author.0);
            w.i64(*ts);
            w.u64(style.0);
            w.u64(src_doc.0);
            w.u64(src_char.0);
            w.opt_str(external.as_deref());
        }
        Effect::Delete { char, by, ts } => {
            w.u8(EFFECT_DELETE);
            w.u64(char.0);
            w.u64(by.0);
            w.i64(*ts);
        }
        Effect::Undelete { char } => {
            w.u8(EFFECT_UNDELETE);
            w.u64(char.0);
        }
        Effect::SetStyle { char, old, new } => {
            w.u8(EFFECT_SET_STYLE);
            w.u64(char.0);
            w.u64(old.0);
            w.u64(new.0);
        }
    }
}

fn read_effect(r: &mut PayloadReader<'_>) -> Result<Effect> {
    match r.u8()? {
        EFFECT_INSERT => Ok(Effect::Insert {
            char: CharId(r.u64()?),
            prev: r.opt_u64()?.map(CharId),
            ch: r.chr()?,
            author: UserId(r.u64()?),
            ts: r.i64()?,
            style: StyleId(r.u64()?),
            src_doc: DocId(r.u64()?),
            src_char: CharId(r.u64()?),
            external: r.opt_str()?,
        }),
        EFFECT_DELETE => Ok(Effect::Delete {
            char: CharId(r.u64()?),
            by: UserId(r.u64()?),
            ts: r.i64()?,
        }),
        EFFECT_UNDELETE => Ok(Effect::Undelete {
            char: CharId(r.u64()?),
        }),
        EFFECT_SET_STYLE => Ok(Effect::SetStyle {
            char: CharId(r.u64()?),
            old: StyleId(r.u64()?),
            new: StyleId(r.u64()?),
        }),
        t => Err(NetError::BadPayload {
            tag: TAG_EVENT,
            reason: format!("unknown effect tag {t}"),
        }),
    }
}

fn write_opt_pair(w: &mut PayloadWriter, v: Option<(u64, u64)>) {
    match v {
        None => w.u8(0),
        Some((a, b)) => {
            w.u8(1);
            w.u64(a);
            w.u64(b);
        }
    }
}

fn read_opt_pair(r: &mut PayloadReader<'_>, tag: u8) -> Result<Option<(u64, u64)>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some((r.u64()?, r.u64()?))),
        b => Err(NetError::BadPayload {
            tag,
            reason: format!("option byte {b}"),
        }),
    }
}

/// Bytes one snapshot character occupies: id, scalar value, deleted
/// flag, style.
const SNAPSHOT_CHAR_BYTES: usize = 8 + 4 + 1 + 8;

fn write_snapshot_char(w: &mut PayloadWriter, id: u64, ch: char, deleted: bool, style: u64) {
    w.u64(id);
    w.chr(ch);
    w.bool(deleted);
    w.u64(style);
}

/// Encode the `Snapshot` frame of an open document: the wire bytes of
/// `Frame::Snapshot { doc, synced_ts, chars }.encode()`, written straight
/// from the handle's chain and cache without building the frame value.
///
/// `synced_ts` is only the current commit frontier on a handle that was
/// just opened or refreshed: it advances on rebuild, not on applied
/// remote events, so a long-lived handle would understate it.
pub fn encode_snapshot(handle: &DocHandle) -> Vec<u8> {
    let n = handle.chain_len();
    let mut w = PayloadWriter::frame(TAG_SNAPSHOT, 8 + 8 + 4 + n * SNAPSHOT_CHAR_BYTES);
    w.u64(handle.doc().0);
    w.u64(handle.synced_ts());
    w.u32(n as u32);
    handle.for_each_char(|id, info| {
        write_snapshot_char(&mut w, id.0, info.ch, info.deleted, info.style.0);
    });
    w.into_frame()
}

/// Encode the `Event` frame of a committed operation: the wire bytes of
/// `Frame::Event(WireEvent::from(ev)).encode()`, written straight from
/// the event, so a broadcast is encoded once without a `WireEvent` copy
/// of its effect list.
pub fn encode_event(ev: &DocEvent) -> Vec<u8> {
    let mut w = PayloadWriter::frame(TAG_EVENT, 0);
    write_event(
        &mut w,
        [ev.doc.0, ev.op.0, ev.commit_ts, ev.user.0, ev.origin.0],
        &ev.kind,
        &ev.effects,
    );
    w.into_frame()
}

/// An `Event` payload: `[doc, op, commit_ts, user, origin]`, the kind,
/// the effects.
fn write_event(w: &mut PayloadWriter, ids: [u64; 5], kind: &str, effects: &[Effect]) {
    for id in ids {
        w.u64(id);
    }
    w.str(kind);
    w.u32(effects.len() as u32);
    for e in effects {
        write_effect(w, e);
    }
}

/// A `Snapshot` payload being decoded: the header, then the characters
/// one at a time, so a reader can build its own representation without
/// an intermediate `Vec<WireChar>`.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    pub doc: u64,
    pub synced_ts: u64,
    remaining: usize,
    r: PayloadReader<'a>,
}

impl<'a> SnapshotReader<'a> {
    pub fn new(payload: &'a [u8]) -> Result<Self> {
        let mut r = PayloadReader::new(TAG_SNAPSHOT, payload);
        Ok(SnapshotReader {
            doc: r.u64()?,
            synced_ts: r.u64()?,
            remaining: r.u32()? as usize,
            r,
        })
    }

    /// Characters still to come, bounded by what the payload could
    /// actually hold — safe to pre-allocate from whatever the count field
    /// claims.
    pub fn remaining_hint(&self) -> usize {
        self.remaining
            .min(self.r.remaining() / SNAPSHOT_CHAR_BYTES + 1)
    }

    /// The next character; after the last one, `None` — or the typed
    /// error for trailing bytes.
    pub fn next_char(&mut self) -> Result<Option<WireChar>> {
        if self.remaining == 0 {
            if self.r.remaining() != 0 {
                return Err(NetError::BadPayload {
                    tag: TAG_SNAPSHOT,
                    reason: format!("{} trailing bytes", self.r.remaining()),
                });
            }
            return Ok(None);
        }
        self.remaining -= 1;
        Ok(Some(WireChar {
            id: self.r.u64()?,
            ch: self.r.chr()?,
            deleted: self.r.bool()?,
            style: self.r.u64()?,
        }))
    }
}

impl Frame {
    /// The frame's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Welcome { .. } => TAG_WELCOME,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Subscribe { .. } => TAG_SUBSCRIBE,
            Frame::Snapshot { .. } => TAG_SNAPSHOT,
            Frame::Unsubscribe { .. } => TAG_UNSUBSCRIBE,
            Frame::Edit { .. } => TAG_EDIT,
            Frame::EditOk { .. } => TAG_EDIT_OK,
            Frame::EditRejected { .. } => TAG_EDIT_REJECTED,
            Frame::Event(_) => TAG_EVENT,
            Frame::Awareness { .. } => TAG_AWARENESS,
            Frame::PresenceQuery { .. } => TAG_PRESENCE_QUERY,
            Frame::Presence { .. } => TAG_PRESENCE,
            Frame::Ping { .. } => TAG_PING,
            Frame::Pong { .. } => TAG_PONG,
            Frame::Resync { .. } => TAG_RESYNC,
            Frame::Bye => TAG_BYE,
        }
    }

    /// Encode to a complete wire frame (`[len][tag][payload]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::frame(self.tag(), 0);
        match self {
            Frame::Hello {
                version,
                user,
                platform,
                token,
            } => {
                w.u16(*version);
                w.str(user);
                w.str(platform);
                w.str(token);
            }
            Frame::Welcome { session } => w.u64(*session),
            Frame::Error { code, message } => {
                w.u16(*code);
                w.str(message);
            }
            Frame::Subscribe { name } => w.str(name),
            Frame::Snapshot {
                doc,
                synced_ts,
                chars,
            } => {
                w.u64(*doc);
                w.u64(*synced_ts);
                w.u32(chars.len() as u32);
                for c in chars {
                    write_snapshot_char(&mut w, c.id, c.ch, c.deleted, c.style);
                }
            }
            Frame::Unsubscribe { doc } => w.u64(*doc),
            Frame::Edit { request, doc, op } => {
                w.u64(*request);
                w.u64(*doc);
                match op {
                    EditOp::Insert { pos, text } => {
                        w.u8(EDIT_INSERT);
                        w.u64(*pos);
                        w.str(text);
                    }
                    EditOp::Delete { pos, len } => {
                        w.u8(EDIT_DELETE);
                        w.u64(*pos);
                        w.u64(*len);
                    }
                }
            }
            Frame::EditOk {
                request,
                op,
                commit_ts,
            } => {
                w.u64(*request);
                w.u64(*op);
                w.u64(*commit_ts);
            }
            Frame::EditRejected { request, message } => {
                w.u64(*request);
                w.str(message);
            }
            Frame::Event(ev) => write_event(
                &mut w,
                [ev.doc, ev.op, ev.commit_ts, ev.user, ev.origin],
                &ev.kind,
                &ev.effects,
            ),
            Frame::Awareness {
                doc,
                cursor,
                selection,
            } => {
                w.u64(*doc);
                w.opt_u64(*cursor);
                write_opt_pair(&mut w, *selection);
            }
            Frame::PresenceQuery { doc } => w.u64(*doc),
            Frame::Presence { doc, entries } => {
                w.u64(*doc);
                w.u32(entries.len() as u32);
                for p in entries {
                    w.u64(p.session);
                    w.u64(p.user);
                    w.str(&p.user_name);
                    w.str(&p.platform);
                    w.opt_u64(p.doc);
                    w.opt_u64(p.cursor);
                    write_opt_pair(&mut w, p.selection);
                    w.i64(p.last_active);
                }
            }
            Frame::Ping { nonce } => w.u64(*nonce),
            Frame::Pong { nonce } => w.u64(*nonce),
            Frame::Resync { doc } => w.u64(*doc),
            Frame::Bye => {}
        }
        w.into_frame()
    }

    /// Decode a frame from its tag and payload bytes.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Frame> {
        let mut r = PayloadReader::new(tag, payload);
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                version: r.u16()?,
                user: r.str()?,
                platform: r.str()?,
                token: r.str()?,
            },
            TAG_WELCOME => Frame::Welcome { session: r.u64()? },
            TAG_ERROR => Frame::Error {
                code: r.u16()?,
                message: r.str()?,
            },
            TAG_SUBSCRIBE => Frame::Subscribe { name: r.str()? },
            TAG_SNAPSHOT => {
                // Its own reader, which also rejects trailing bytes.
                let mut snap = SnapshotReader::new(payload)?;
                let mut chars = Vec::with_capacity(snap.remaining_hint());
                while let Some(c) = snap.next_char()? {
                    chars.push(c);
                }
                return Ok(Frame::Snapshot {
                    doc: snap.doc,
                    synced_ts: snap.synced_ts,
                    chars,
                });
            }
            TAG_UNSUBSCRIBE => Frame::Unsubscribe { doc: r.u64()? },
            TAG_EDIT => {
                let request = r.u64()?;
                let doc = r.u64()?;
                let op = match r.u8()? {
                    EDIT_INSERT => EditOp::Insert {
                        pos: r.u64()?,
                        text: r.str()?,
                    },
                    EDIT_DELETE => EditOp::Delete {
                        pos: r.u64()?,
                        len: r.u64()?,
                    },
                    t => {
                        return Err(NetError::BadPayload {
                            tag,
                            reason: format!("unknown edit op {t}"),
                        })
                    }
                };
                Frame::Edit { request, doc, op }
            }
            TAG_EDIT_OK => Frame::EditOk {
                request: r.u64()?,
                op: r.u64()?,
                commit_ts: r.u64()?,
            },
            TAG_EDIT_REJECTED => Frame::EditRejected {
                request: r.u64()?,
                message: r.str()?,
            },
            TAG_EVENT => {
                let doc = r.u64()?;
                let op = r.u64()?;
                let commit_ts = r.u64()?;
                let user = r.u64()?;
                let origin = r.u64()?;
                let kind = r.str()?;
                let n = r.u32()? as usize;
                let mut effects = Vec::with_capacity(n.min(r.remaining() / 9 + 1));
                for _ in 0..n {
                    effects.push(read_effect(&mut r)?);
                }
                Frame::Event(WireEvent {
                    doc,
                    op,
                    commit_ts,
                    user,
                    origin,
                    kind,
                    effects,
                })
            }
            TAG_AWARENESS => Frame::Awareness {
                doc: r.u64()?,
                cursor: r.opt_u64()?,
                selection: read_opt_pair(&mut r, tag)?,
            },
            TAG_PRESENCE_QUERY => Frame::PresenceQuery { doc: r.u64()? },
            TAG_PRESENCE => {
                let doc = r.u64()?;
                let n = r.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(r.remaining() / 34 + 1));
                for _ in 0..n {
                    entries.push(WirePresence {
                        session: r.u64()?,
                        user: r.u64()?,
                        user_name: r.str()?,
                        platform: r.str()?,
                        doc: r.opt_u64()?,
                        cursor: r.opt_u64()?,
                        selection: read_opt_pair(&mut r, tag)?,
                        last_active: r.i64()?,
                    });
                }
                Frame::Presence { doc, entries }
            }
            TAG_PING => Frame::Ping { nonce: r.u64()? },
            TAG_PONG => Frame::Pong { nonce: r.u64()? },
            TAG_RESYNC => Frame::Resync { doc: r.u64()? },
            TAG_BYE => Frame::Bye,
            t => return Err(NetError::UnknownTag(t)),
        };
        r.finish()?;
        Ok(frame)
    }
}
