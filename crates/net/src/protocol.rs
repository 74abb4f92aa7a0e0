//! Frame types of the TeNDaX wire protocol and their binary codec.
//!
//! One TCP connection carries a sequence of frames (see
//! [`crate::wire`] for the byte layout). The protocol is:
//!
//! ```text
//! client                                  server
//!   | -- Hello{version,user,token} ------> |   session hello / auth
//!   | <-- Welcome{session} --------------- |   (or Error + close)
//!   | -- Subscribe{req,name,resume} -----> |   resume: a kept mirror's (doc, from)
//!   | <-- Snapshot{req,doc,ts,runs,text} - |   full chain incl. tombstones
//!   | <-- Delta{req,doc,from,ts,events} -- |   or the events since `from`
//!   | -- Edit{req,doc,op} ---------------> |
//!   | <-- EditOk{req,op,ts} -------------- |   (or EditRejected{req})
//!   | <-- Event{...} --------------------- |   committed-op broadcast, pushed
//!   | -- Awareness{doc,cursor,sel} ------> |
//!   | -- PresenceQuery{doc} -------------> |
//!   | <-- Presence{doc,entries} ---------- |
//!   | -- Ping{nonce} --------------------> |
//!   | <-- Pong{nonce} -------------------- |
//!   | -- Resync{req,doc} ----------------> |
//!   | <-- Snapshot{req,doc,ts,runs,text} - |   fresh copy on request
//!   | <-- Snapshot{0,…} / Delta{0,…} ----- |   lag recovery, unasked
//!   | -- Unsubscribe{doc} / Bye ---------> |
//! ```
//!
//! A reply names the request it answers: `EditOk`/`EditRejected` the
//! `Edit`'s `req`, a `Snapshot` the `Subscribe`'s or `Resync`'s, a
//! `Delta` the `Subscribe`'s (a client numbers its requests from 1). A
//! recovery snapshot or delta carries 0, so it can never pass for the
//! answer to a request.
//!
//! A `Subscribe` may offer a mirror the client kept when it last closed
//! the document, as `(doc, from)`: the mirror holds every commit of `doc`
//! at or below `from`. If the name still resolves to `doc` and the
//! server's live document holds every commit since, the answer is a
//! `Delta`: those commits' `Event` payloads, in commit order, and the
//! frontier `synced_ts` they bring the mirror to — what a `Snapshot` at
//! `synced_ts` would hold. Otherwise it is a `Snapshot`. A `Resync` is
//! always answered by a `Snapshot`:
//!
//! ```text
//! request u64, doc u64, from u64, synced_ts u64, events u32,
//! events × (Event payload)
//! ```
//!
//! A `Snapshot` lists runs, not characters: a run is a stretch of
//! chain-consecutive characters with consecutive ids, one `deleted` flag
//! and one style, and the text follows the run table as one string:
//!
//! ```text
//! request u64, doc u64, synced_ts u64, chars u32, runs u32,
//! runs × (first u64, len u32, deleted u8, style u64),
//! text (u32 length, UTF-8)
//! ```
//!
//! Decoding is total: any byte sequence either yields a frame or a
//! typed [`NetError`] — malformed input from the network can never
//! panic the process.

use tendax_collab::{DocEvent, Join, Presence, SessionId};
use tendax_text::{CharId, DocHandle, DocId, Effect, OpId, StyleId, UserId};

use crate::error::{NetError, Result};
use crate::wire::{PayloadReader, PayloadWriter};

/// Protocol version sent in `Hello`; the server rejects a mismatch.
/// Version 2 run-codes `Snapshot` payloads and gives `Subscribe`,
/// `Resync` and `Snapshot` a request id; version 3 lets a `Subscribe`
/// offer a kept mirror and adds the `Delta` that resumes it.
pub const PROTOCOL_VERSION: u16 = 3;

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
            kind: ev.kind.as_str().to_owned(),
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
            kind: ev.kind.into(),
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
    /// `resume` is the `(doc, from)` of a mirror the client kept when it
    /// last closed the document: it holds every commit of `doc` at or
    /// below `from`.
    Subscribe {
        request: u64,
        name: String,
        resume: Option<(u64, u64)>,
    },
    /// A document's full chain; `request` names the `Subscribe` or
    /// `Resync` it answers, 0 for an unasked recovery snapshot.
    Snapshot {
        request: u64,
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
        request: u64,
        doc: u64,
    },
    /// The commits of `doc` above `from`, in commit order: what brings a
    /// mirror that holds every commit up to `from` to `synced_ts`.
    /// `request` names the `Subscribe` it answers, 0 for an unasked
    /// recovery.
    Delta {
        request: u64,
        doc: u64,
        from: u64,
        synced_ts: u64,
        events: Vec<WireEvent>,
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
pub(crate) const TAG_DELTA: u8 = 0x12;

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
        t => Err(r.bad(format!("unknown effect tag {t}"))),
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

/// Bytes of a `Snapshot` header: request, doc, synced_ts, the character
/// count and the run count.
const SNAPSHOT_HEADER: usize = 8 + 8 + 8 + 4 + 4;

/// Bytes of one run in a `Snapshot`: first id, length, deleted flag,
/// style.
const RUN_BYTES: usize = 8 + 4 + 1 + 8;

/// A stretch of chain-consecutive characters with consecutive ids, one
/// `deleted` flag and one style: what a `Snapshot` lists instead of its
/// characters. Ids run from `first` to `first + len - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapshotRun {
    pub(crate) first: u64,
    pub(crate) len: u32,
    pub(crate) deleted: bool,
    pub(crate) style: u64,
}

impl SnapshotRun {
    /// The run of one character.
    pub(crate) fn of(id: u64, deleted: bool, style: u64) -> SnapshotRun {
        SnapshotRun {
            first: id,
            len: 1,
            deleted,
            style,
        }
    }

    /// Whether the character `id` with this flag and style continues the
    /// run.
    pub(crate) fn continues_with(&self, id: u64, deleted: bool, style: u64) -> bool {
        self.first.checked_add(u64::from(self.len)) == Some(id)
            && self.len < u32::MAX
            && self.deleted == deleted
            && self.style == style
    }

    /// A run from its `RUN_BYTES` bytes; a `deleted` byte other than 0 or
    /// 1 is left to [`SnapshotReader::new`] to refuse.
    fn from_bytes(b: &[u8]) -> SnapshotRun {
        SnapshotRun {
            first: u64::from_le_bytes(b[..8].try_into().unwrap()),
            len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            deleted: b[12] != 0,
            style: u64::from_le_bytes(b[13..21].try_into().unwrap()),
        }
    }
}

/// The run coder: writes a `Snapshot` frame from characters fed in chain
/// order. A character that continues the open run lengthens it; any
/// other closes it into the frame and opens the next. The text gathers
/// beside the runs and goes in last, behind its length.
struct SnapshotWriter {
    w: PayloadWriter,
    /// Where the character and run counts go once they are known.
    counts: usize,
    run: Option<SnapshotRun>,
    chars: u32,
    runs: u32,
    text: String,
}

impl SnapshotWriter {
    /// `chars` presizes the text: the characters expected.
    fn new(request: u64, doc: u64, synced_ts: u64, chars: usize) -> Self {
        let mut w = PayloadWriter::frame(TAG_SNAPSHOT, SNAPSHOT_HEADER + 4 + chars);
        w.u64(request);
        w.u64(doc);
        w.u64(synced_ts);
        let counts = w.position();
        w.u32(0);
        w.u32(0);
        SnapshotWriter {
            w,
            counts,
            run: None,
            chars: 0,
            runs: 0,
            text: String::with_capacity(chars),
        }
    }

    fn push(&mut self, id: u64, ch: char, deleted: bool, style: u64) {
        match &mut self.run {
            Some(run) if run.continues_with(id, deleted, style) => run.len += 1,
            open => {
                if let Some(done) = open.replace(SnapshotRun::of(id, deleted, style)) {
                    self.close(done);
                }
            }
        }
        self.chars += 1;
        self.text.push(ch);
    }

    fn close(&mut self, run: SnapshotRun) {
        self.w.u64(run.first);
        self.w.u32(run.len);
        self.w.bool(run.deleted);
        self.w.u64(run.style);
        self.runs += 1;
    }

    fn finish(mut self) -> Vec<u8> {
        if let Some(run) = self.run.take() {
            self.close(run);
        }
        self.w.set_u32(self.counts, self.chars);
        self.w.set_u32(self.counts + 4, self.runs);
        self.w.str(&self.text);
        self.w.into_frame()
    }
}

/// Encode the `Snapshot` frame of an open document, answering request
/// `request` (0: unasked): the wire bytes of `Frame::Snapshot { request,
/// doc, synced_ts, chars }.encode()`, written in one walk of the handle's
/// chain without building the frame value.
///
/// `synced_ts` is only the current commit frontier on a handle that was
/// just opened or refreshed: it advances on rebuild, not on applied
/// remote events, so a long-lived handle would understate it.
pub fn encode_snapshot(handle: &DocHandle, request: u64) -> Vec<u8> {
    let mut s = SnapshotWriter::new(
        request,
        handle.doc().0,
        handle.synced_ts(),
        handle.chain_len(),
    );
    handle.for_each_char(|id, info| s.push(id.0, info.ch, info.deleted, info.style.0));
    s.finish()
}

/// Encode the `Event` frame of a committed operation: the wire bytes of
/// `Frame::Event(WireEvent::from(ev)).encode()`, written straight from
/// the event, so a broadcast is encoded once without a `WireEvent` copy
/// of its effect list.
pub fn encode_event(ev: &DocEvent) -> Vec<u8> {
    let mut w = PayloadWriter::frame(TAG_EVENT, ev.wire_len());
    write_doc_event(&mut w, ev);
    w.into_frame()
}

/// Encode what a reader joining a live document's stream is owed,
/// answering request `request` (0: unasked): a `Delta` if the document
/// offers one, else its `Snapshot`.
pub fn encode_join(at: &Join<'_>, request: u64) -> Vec<u8> {
    let Some((from, events)) = at.delta() else {
        return encode_snapshot(at, request);
    };
    let mut w = PayloadWriter::frame(TAG_DELTA, DELTA_HEADER);
    for v in [request, at.doc().0, from, at.synced_ts()] {
        w.u64(v);
    }
    w.u32(events.len() as u32);
    for ev in events {
        write_doc_event(&mut w, ev);
    }
    w.into_frame()
}

/// Bytes of a `Delta` header: request, doc, from, synced_ts and the event
/// count.
const DELTA_HEADER: usize = 8 * 4 + 4;

/// The fewest bytes an `Event` payload takes: five ids, an empty kind, no
/// effects.
const EVENT_MIN: usize = 8 * 5 + 4 + 4;

/// The `Event` payload of `ev`.
fn write_doc_event(w: &mut PayloadWriter, ev: &DocEvent) {
    write_event(
        w,
        [ev.doc.0, ev.op.0, ev.commit_ts, ev.user.0, ev.origin.0],
        ev.kind.as_str(),
        &ev.effects,
    );
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

fn read_event(r: &mut PayloadReader<'_>) -> Result<WireEvent> {
    let [doc, op, commit_ts, user, origin] = [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let kind = r.str()?;
    let n = r.u32()? as usize;
    let mut effects = Vec::with_capacity(n.min(r.remaining() / 9 + 1));
    for _ in 0..n {
        effects.push(read_effect(r)?);
    }
    Ok(WireEvent {
        doc,
        op,
        commit_ts,
        user,
        origin,
        kind,
        effects,
    })
}

/// A `Snapshot` payload, checked and borrowed: the header, the run
/// table and the text. Every run is non-empty and its ids do not pass
/// `u64::MAX`, the runs hold `chars` characters and the text is UTF-8
/// holding as many, so [`SnapshotReader::chars`] pairs them up without
/// further checks. Two runs may still name one id: a mirror refuses
/// that when it sorts what it loaded.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    pub request: u64,
    pub doc: u64,
    pub synced_ts: u64,
    /// Characters listed, tombstones included.
    pub chars: usize,
    table: &'a [u8],
    text: &'a str,
}

impl<'a> SnapshotReader<'a> {
    pub fn new(payload: &'a [u8]) -> Result<Self> {
        let mut r = PayloadReader::new(TAG_SNAPSHOT, payload);
        let (request, doc, synced_ts) = (r.u64()?, r.u64()?, r.u64()?);
        let chars = r.u32()? as usize;
        let runs = r.u32()? as usize;
        // Taken before anything is sized by a count: a run count beyond
        // the bytes present is `Truncated`, not a large reservation.
        let table = r.take(runs.saturating_mul(RUN_BYTES))?;
        let text = r.str_ref()?;
        r.finish()?;
        let bad = |reason: String| {
            Err(NetError::BadPayload {
                tag: TAG_SNAPSHOT,
                reason,
            })
        };
        if runs > chars {
            return bad(format!("{runs} runs for {chars} characters"));
        }
        let mut listed = 0u64;
        for (i, b) in table.chunks_exact(RUN_BYTES).enumerate() {
            let run = SnapshotRun::from_bytes(b);
            if b[12] > 1 {
                return bad(format!("run {i}: deleted flag {}", b[12]));
            }
            if run.len == 0 {
                return bad(format!("run {i} is empty"));
            }
            if run.first.checked_add(u64::from(run.len) - 1).is_none() {
                return bad(format!("run {i}: ids from {} overflow", run.first));
            }
            listed += u64::from(run.len);
        }
        if listed != chars as u64 {
            return bad(format!(
                "runs hold {listed} characters, header says {chars}"
            ));
        }
        let in_text = text.chars().count();
        if in_text != chars {
            return bad(format!("text holds {in_text} characters, runs {chars}"));
        }
        Ok(SnapshotReader {
            request,
            doc,
            synced_ts,
            chars,
            table,
            text,
        })
    }

    /// The runs in chain order.
    pub(crate) fn runs(&self) -> impl ExactSizeIterator<Item = SnapshotRun> + 'a {
        self.table
            .chunks_exact(RUN_BYTES)
            .map(SnapshotRun::from_bytes)
    }

    /// The characters of the runs, in chain order, as one string.
    pub(crate) fn text(&self) -> &'a str {
        self.text
    }

    /// The characters in chain order: each run's ids and flags, paired
    /// with the text.
    pub fn chars(&self) -> impl Iterator<Item = WireChar> + 'a {
        self.runs()
            .flat_map(|run| (0..u64::from(run.len)).map(move |k| (run, run.first + k)))
            .zip(self.text.chars())
            .map(|((run, id), ch)| WireChar {
                id,
                ch,
                deleted: run.deleted,
                style: run.style,
            })
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
            Frame::Delta { .. } => TAG_DELTA,
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
            Frame::Subscribe {
                request,
                name,
                resume,
            } => {
                w.u64(*request);
                w.str(name);
                write_opt_pair(&mut w, *resume);
            }
            Frame::Snapshot {
                request,
                doc,
                synced_ts,
                chars,
            } => {
                let mut s = SnapshotWriter::new(*request, *doc, *synced_ts, chars.len());
                for c in chars {
                    s.push(c.id, c.ch, c.deleted, c.style);
                }
                return s.finish();
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
            Frame::Resync { request, doc } => {
                w.u64(*request);
                w.u64(*doc);
            }
            Frame::Delta {
                request,
                doc,
                from,
                synced_ts,
                events,
            } => {
                for v in [*request, *doc, *from, *synced_ts] {
                    w.u64(v);
                }
                w.u32(events.len() as u32);
                for ev in events {
                    write_event(
                        &mut w,
                        [ev.doc, ev.op, ev.commit_ts, ev.user, ev.origin],
                        &ev.kind,
                        &ev.effects,
                    );
                }
            }
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
            TAG_SUBSCRIBE => Frame::Subscribe {
                request: r.u64()?,
                name: r.str()?,
                resume: read_opt_pair(&mut r, tag)?,
            },
            TAG_SNAPSHOT => {
                // Its own reader, which also rejects trailing bytes.
                let snap = SnapshotReader::new(payload)?;
                // `chars` is checked against the text's length: bounded
                // by the payload.
                let mut chars = Vec::with_capacity(snap.chars);
                chars.extend(snap.chars());
                return Ok(Frame::Snapshot {
                    request: snap.request,
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
            TAG_EVENT => Frame::Event(read_event(&mut r)?),
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
            TAG_RESYNC => Frame::Resync {
                request: r.u64()?,
                doc: r.u64()?,
            },
            TAG_DELTA => {
                let [request, doc, from, synced_ts] = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
                let n = r.u32()? as usize;
                let mut events = Vec::with_capacity(n.min(r.remaining() / EVENT_MIN + 1));
                for _ in 0..n {
                    events.push(read_event(&mut r)?);
                }
                if from > synced_ts {
                    return Err(r.bad(format!("from {from} is past synced_ts {synced_ts}")));
                }
                if let Some(ev) = events.iter().find(|ev| ev.doc != doc) {
                    return Err(r.bad(format!(
                        "an event of document {} in a delta of {doc}",
                        ev.doc
                    )));
                }
                Frame::Delta {
                    request,
                    doc,
                    from,
                    synced_ts,
                    events,
                }
            }
            TAG_BYE => Frame::Bye,
            t => return Err(NetError::UnknownTag(t)),
        };
        r.finish()?;
        Ok(frame)
    }
}
