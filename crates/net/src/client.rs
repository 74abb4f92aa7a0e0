//! The TCP collaboration client.
//!
//! [`ClientCore`] is the protocol with no I/O: it hands out the bytes of
//! the `Hello` and of each request, takes the server's frames in, keeps a
//! [`MirrorDoc`] per subscribed document from the snapshot + event
//! stream, and returns a [`Completion`] for each request a frame answers.
//! [`NetClient`] is its shell: it connects, writes the `Hello` and feeds
//! the core from the socket; callers block until their completion
//! arrives, one outstanding request per connection.
//!
//! Who reads the socket: one holder at a time, chosen under the state
//! lock. A blocking call (a request's reply, [`NetClient::wait_synced`]'s
//! frontier) reads it itself whenever nobody else does, so a reply
//! crosses no thread; a call that finds it held waits to be woken by
//! whoever reads. A reader thread reads it while no call does: it takes
//! the socket back once no call has waited for a handover of 2 ms, so an
//! event reaches the mirror of a client that makes no call at most about
//! a handover after that client's last call, and at once after that. No
//! call wakes the reader thread; while calls keep coming it wakes once a
//! handover to look, and an idle client wakes nothing.
//!
//! A reply names what it answers: `EditOk`/`EditRejected`, `Snapshot`
//! and `Delta` the request id of the `Edit`, `Subscribe` or `Resync`,
//! `Pong` the ping's nonce, `Presence` the document, `Welcome` the
//! `Hello`. An unsolicited `Snapshot` or `Delta` (the server's
//! slow-consumer recovery path, request 0) answers nothing and brings the
//! mirror up to date transparently. An `Error` frame answers the
//! outstanding request; outside one it is terminal (auth, slow consumer,
//! protocol) and poisons the client: every subsequent call returns the
//! remote error, code and all.
//!
//! `Unsubscribe` does not drop a document's mirror: the core keeps it,
//! frozen — no event reaches it — until the document is subscribed again
//! or the connection ends. The next `Subscribe` of that name offers it to
//! the server as `(doc, from)`, and a `Delta` that answers resumes it:
//! the commits since `from` are applied as events. A `Snapshot` answer
//! replaces it, as does a `Resync`, which is never answered by a delta.

use std::collections::HashMap;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{codes, NetError, Result};
use crate::mirror::MirrorDoc;
use crate::protocol::{
    EditOp, Frame, SnapshotReader, WireEvent, WirePresence, PROTOCOL_VERSION, TAG_SNAPSHOT,
};
use crate::wire::FrameBuffer;

/// Tuning knobs of the client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long a request waits for its reply frame.
    pub reply_timeout: Duration,
    /// Authentication token sent in `Hello`.
    pub token: String,
    /// Platform string advertised in `Hello`.
    pub platform: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            reply_timeout: Duration::from_secs(10),
            token: String::new(),
            platform: "Linux".into(),
        }
    }
}

/// What answers a request — the same for the request and its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Welcome,
    /// A request id, or a ping's nonce.
    Id(u64),
    Presence(u64),
}

impl Answer {
    fn of(frame: &Frame) -> Option<Answer> {
        Some(match *frame {
            Frame::Hello { .. } | Frame::Welcome { .. } => Answer::Welcome,
            Frame::Subscribe { request, .. }
            | Frame::Resync { request, .. }
            | Frame::Edit { request, .. }
            | Frame::Snapshot { request, .. }
            | Frame::Delta { request, .. }
            | Frame::EditOk { request, .. }
            | Frame::EditRejected { request, .. }
            | Frame::Ping { nonce: request }
            | Frame::Pong { nonce: request } => Answer::Id(request),
            Frame::PresenceQuery { doc } | Frame::Presence { doc, .. } => Answer::Presence(doc),
            _ => return None,
        })
    }
}

/// A request answered: its id (0 for the `Hello`) and the reply frame —
/// a `Snapshot` or `Delta` with its header only, its content being in
/// the mirror — or the `Error` frame that answered it.
#[derive(Debug)]
pub struct Completion {
    pub id: u64,
    pub reply: Result<Frame>,
}

/// The client's protocol state, with no socket: take request bytes from
/// [`ClientCore::request`], feed it the server's frames with
/// [`ClientCore::on_frame`].
#[derive(Debug, Default)]
pub struct ClientCore {
    mirrors: HashMap<u64, MirrorDoc>,
    /// Mirrors of closed documents, frozen, by name.
    kept: HashMap<String, MirrorDoc>,
    /// Subscriptions asked for and not yet answered, by request id: the
    /// name, and the kept mirror offered for a delta.
    subscribing: HashMap<u64, (String, Option<MirrorDoc>)>,
    /// The name each subscribed document was subscribed by.
    names: HashMap<u64, String>,
    /// Requests sent and not yet answered, oldest first: what answers
    /// each, and its id.
    pending: Vec<(Answer, u64)>,
    /// The last request id handed out.
    last_id: u64,
    /// Terminal error: the connection is unusable.
    fatal: Option<NetError>,
    /// Event frames seen (diagnostics).
    events_seen: u64,
}

impl ClientCore {
    /// The `Hello` frame's bytes; the `Welcome` completes request 0.
    pub fn hello(&mut self, user: &str, platform: &str, token: &str) -> Vec<u8> {
        self.send(
            0,
            Frame::Hello {
                version: PROTOCOL_VERSION,
                user: user.into(),
                platform: platform.into(),
                token: token.into(),
            },
        )
    }

    /// A fresh request id and the bytes of the frame `make` builds with
    /// it (as the request id, or a ping's nonce). A frame nothing answers
    /// (`Unsubscribe`, `Awareness`, `Bye`) completes nothing;
    /// `Unsubscribe` freezes the document's mirror, and a `Subscribe` of
    /// its name offers it (its `resume` is set to the mirror's).
    pub fn request(&mut self, make: impl FnOnce(u64) -> Frame) -> (u64, Vec<u8>) {
        self.last_id += 1;
        let id = self.last_id;
        (id, self.send(id, make(id)))
    }

    fn send(&mut self, id: u64, mut frame: Frame) -> Vec<u8> {
        if let Some(answer) = Answer::of(&frame) {
            self.pending.push((answer, id));
        }
        match &mut frame {
            Frame::Unsubscribe { doc } => {
                let name = self.names.remove(doc);
                let mirror = self.mirrors.remove(doc);
                // A mirror that needs a resync is broken: not worth keeping.
                if let (Some(name), Some(m)) = (name, mirror.filter(|m| !m.needs_resync())) {
                    self.kept.insert(name, m);
                }
            }
            Frame::Subscribe { name, resume, .. } => {
                let kept = self.kept.remove(name.as_str());
                *resume = kept.as_ref().map(|m| (m.doc(), m.synced_ts()));
                self.subscribing.insert(id, (name.clone(), kept));
            }
            _ => {}
        }
        frame.encode()
    }

    /// Stop waiting for request `id`: a late reply completes nothing.
    fn cancel(&mut self, id: u64) {
        self.pending.retain(|&(_, i)| i != id);
        self.subscribing.remove(&id);
    }

    /// Take one frame from the server: events feed the mirrors, replies
    /// complete their requests.
    pub fn on_frame(&mut self, tag: u8, payload: &[u8]) -> Vec<Completion> {
        let frame = match self.decode(tag, payload) {
            Ok(Frame::Event(ev)) => {
                self.events_seen += 1;
                if let Some(m) = self.mirrors.get_mut(&ev.doc) {
                    // One that does not fit flags the mirror for a resync.
                    let _ = m.apply_event(ev);
                }
                return Vec::new();
            }
            Ok(frame) => frame,
            Err(e) => return self.fail(e),
        };
        let (found, reply) = match frame {
            // An error frame answers the outstanding request; outside one
            // it is terminal (e.g. the slow-consumer cut).
            Frame::Error { code, message } if self.pending.is_empty() => {
                return self.fail(NetError::Remote { code, message })
            }
            Frame::Error { code, message } => (Some(0), Err(NetError::Remote { code, message })),
            frame => (self.awaiting(&frame), Ok(frame)),
        };
        let Some(i) = found else {
            return Vec::new();
        };
        let id = self.pending.remove(i).1;
        // A subscription answered: its document is known by its name.
        let subscribed = self.subscribing.remove(&id);
        if let (Some((name, _)), Ok(Frame::Snapshot { doc, .. } | Frame::Delta { doc, .. })) =
            (subscribed, &reply)
        {
            self.names.insert(*doc, name);
        }
        vec![Completion { id, reply }]
    }

    /// Where in `pending` the request `reply` answers is, if awaited.
    fn awaiting(&self, reply: &Frame) -> Option<usize> {
        let answer = Answer::of(reply)?;
        self.pending.iter().position(|(a, _)| *a == answer)
    }

    /// A `Snapshot` goes from its wire bytes straight into the document's
    /// mirror, a `Delta` is applied to it; what comes back for either
    /// carries only the header. A snapshot replaces a mirror, but creates
    /// one only for the request it answers: a recovery snapshot that
    /// crosses an `unsubscribe` must not bring back a mirror no event will
    /// reach.
    fn decode(&mut self, tag: u8, payload: &[u8]) -> Result<Frame> {
        if tag != TAG_SNAPSHOT {
            return match Frame::decode(tag, payload)? {
                Frame::Delta {
                    request,
                    doc,
                    from,
                    synced_ts,
                    events,
                } => self.resume(request, doc, from, synced_ts, events),
                frame => Ok(frame),
            };
        }
        let snap = SnapshotReader::new(payload)?;
        let fresh = MirrorDoc::from_snapshot(&snap)?;
        let header = Frame::Snapshot {
            request: snap.request,
            doc: fresh.doc(),
            synced_ts: fresh.synced_ts(),
            chars: Vec::new(),
        };
        let asked = self.awaiting(&header).is_some();
        match self.mirrors.get_mut(&fresh.doc()) {
            Some(m) => m.reload(fresh),
            None if asked => {
                self.mirrors.insert(fresh.doc(), fresh);
            }
            None => {}
        }
        Ok(header)
    }

    /// Apply a `Delta` to the mirror it resumes — the one its `Subscribe`
    /// offered, or, for a recovery, the subscribed document's — and hand
    /// back its header. One that does not fit flags the mirror for a
    /// resync; one answering a `Subscribe` that offered no mirror is a
    /// protocol error.
    fn resume(
        &mut self,
        request: u64,
        doc: u64,
        from: u64,
        synced_ts: u64,
        events: Vec<WireEvent>,
    ) -> Result<Frame> {
        let header = Frame::Delta {
            request,
            doc,
            from,
            synced_ts,
            events: Vec::new(),
        };
        let asked = self.awaiting(&header).map(|i| self.pending[i].1);
        if let Some(kept) = asked.and_then(|id| self.subscribing.get_mut(&id)?.1.take()) {
            self.mirrors.insert(doc, kept);
        }
        match self.mirrors.get_mut(&doc) {
            Some(m) => {
                // One that does not fit flags the mirror for a resync.
                let _ = m.apply_delta(doc, from, synced_ts, events);
            }
            None if asked.is_some() => {
                return Err(NetError::Protocol(format!(
                    "a delta of document {doc} answers a subscription that offered no mirror"
                )))
            }
            None => {}
        }
        Ok(header)
    }

    /// The connection is unusable for `why` (the first reason sticks):
    /// every outstanding request fails with it.
    fn fail(&mut self, why: NetError) -> Vec<Completion> {
        self.fatal.get_or_insert(why);
        self.kept.clear();
        self.subscribing.clear();
        let pending = std::mem::take(&mut self.pending);
        let fail = |(_, id)| Completion {
            id,
            reply: Err(self.terminal().expect("just set")),
        };
        pending.into_iter().map(fail).collect()
    }

    /// The terminal error, if any: a remote error as it came, anything
    /// else as a protocol error naming it.
    fn terminal(&self) -> Option<NetError> {
        self.fatal.as_ref().map(|e| match e {
            NetError::Remote { code, message } => NetError::Remote {
                code: *code,
                message: message.clone(),
            },
            other => NetError::Protocol(other.to_string()),
        })
    }

    pub fn mirror(&self, doc: u64) -> Option<&MirrorDoc> {
        self.mirrors.get(&doc)
    }
}

/// How long the socket stays with the calls after the last one ended:
/// a call that comes within it finds the read side free, or held by
/// another call, and never waits for the reader thread. Past it the
/// reader thread takes the socket back, so it is also how late an event
/// can reach the mirror of a client that makes no call.
const HANDOVER: Duration = Duration::from_millis(2);

/// A call's socket read times out this often, so that the call can
/// check its deadline.
const CALLER_TICK: Duration = Duration::from_millis(100);

/// The socket's read half and the bytes read from it that do not make a
/// whole frame yet. One reader holds it at a time, a waiting call or
/// the reader thread, and takes it out of [`State::side`] to read.
struct ReadSide {
    stream: TcpStream,
    buf: FrameBuffer,
    scratch: Vec<u8>,
    /// The socket's read timeout: a call's tick, or none for the reader
    /// thread. Set again only when the holder changes kind.
    timeout: Option<Duration>,
}

impl std::fmt::Debug for ReadSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSide")
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl ReadSide {
    fn new(stream: TcpStream) -> ReadSide {
        ReadSide {
            stream,
            buf: FrameBuffer::default(),
            scratch: vec![0u8; 64 * 1024],
            timeout: None,
        }
    }

    /// Read once, waiting at most `timeout` for bytes, and hand the core
    /// every whole frame in socket order. Returns the state, locked; the
    /// caller wakes whoever waits on it. A read that times out hands
    /// nothing; the end of the stream or a bad frame poisons the core.
    fn read<'a>(
        &mut self,
        shared: &'a ClientShared,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, State> {
        if self.timeout != timeout && self.stream.set_read_timeout(timeout).is_ok() {
            self.timeout = timeout;
        }
        let read = match self.stream.read(&mut self.scratch) {
            Ok(0) => Err(NetError::Closed),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Ok(0),
            read => read.map_err(NetError::Io),
        };
        let mut state = shared.state.lock();
        let State { core, done, .. } = &mut *state;
        let handed = read.and_then(|n| {
            self.buf.extend(&self.scratch[..n]);
            while let Some((tag, payload)) = self.buf.next_frame()? {
                done.extend(core.on_frame(tag, payload));
            }
            Ok(())
        });
        if let Err(e) = handed {
            done.extend(core.fail(e));
        }
        state
    }
}

/// The core, the completions read that no caller has collected yet, and
/// who reads the socket.
#[derive(Debug)]
struct State {
    core: ClientCore,
    done: Vec<Completion>,
    /// The read side while nobody holds it.
    side: Option<Box<ReadSide>>,
    /// Calls waiting on [`ClientShared::changed`] for another reader:
    /// whoever reads wakes them, and the reader thread lets the side go
    /// after its next read.
    waiting: usize,
    /// When the last call stopped waiting; the reader thread takes the
    /// socket back [`HANDOVER`] after it.
    last_call: Instant,
}

#[derive(Debug)]
struct ClientShared {
    state: Mutex<State>,
    /// Signalled whenever a reader has handed the core frames or let the
    /// read side go: a mirror may have advanced, a request may have
    /// completed, the side may be free.
    changed: Condvar,
    /// The reader thread waits on it for the calls to go quiet; only
    /// [`NetClient::close`] signals it, so no call ever wakes the thread.
    quiet: Condvar,
}

impl ClientShared {
    /// Wake the calls waiting for another reader, if any.
    fn wake(&self, state: &State) {
        if state.waiting > 0 {
            self.changed.notify_all();
        }
    }
}

/// Wait on `cv` until `deadline` at the latest.
fn wait_until(cv: &Condvar, state: &mut MutexGuard<'_, State>, deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        cv.wait_for(state, left);
    }
}

/// A connected TCP collaboration client.
///
/// Its blocking calls read their own replies and events from the socket
/// while no other call does; its reader thread, which no call wakes,
/// reads once the calls have been quiet for a 2 ms handover, so the
/// mirrors keep up with no call in progress. A call's read wakes every
/// 100 ms to check its deadline, so a timeout can be overrun by that
/// much.
#[derive(Debug)]
pub struct NetClient {
    stream: Mutex<TcpStream>,
    shared: Arc<ClientShared>,
    session: u64,
    reply_timeout: Duration,
    /// Serializes requests: one outstanding reply at a time.
    request_lock: Mutex<()>,
    reader: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Connect and authenticate as `user`.
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> Result<NetClient> {
        Self::connect_with(addr, user, ClientConfig::default())
    }

    pub fn connect_with(
        addr: impl ToSocketAddrs,
        user: &str,
        config: ClientConfig,
    ) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut core = ClientCore::default();
        let hello = core.hello(user, &config.platform, &config.token);
        let shared = Arc::new(ClientShared {
            state: Mutex::new(State {
                core,
                done: Vec::new(),
                side: Some(Box::new(ReadSide::new(stream.try_clone()?))),
                waiting: 0,
                // The handshake is a call: the thread waits it out.
                last_call: Instant::now(),
            }),
            changed: Condvar::new(),
            quiet: Condvar::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tendax-net-client".into())
                .spawn(move || reader_loop(&shared))
                .expect("spawn client reader")
        };
        // Dropping the client on a failed handshake stops the reader.
        let mut client = NetClient {
            stream: Mutex::new(stream),
            shared,
            session: 0,
            reply_timeout: config.reply_timeout,
            request_lock: Mutex::new(()),
            reader: Some(reader),
        };
        client.stream.lock().write_all(&hello)?;
        match client.wait(0)? {
            Frame::Welcome { session } => client.session = session,
            other => return Err(unexpected(other)),
        }
        Ok(client)
    }

    /// The session id the server assigned in `Welcome`.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The terminal error that poisoned this connection, if any.
    pub fn fatal(&self) -> Option<String> {
        let state = self.shared.state.lock();
        state.core.fatal.as_ref().map(ToString::to_string)
    }

    /// Total `Event` frames received on this connection (diagnostics).
    pub fn events_seen(&self) -> u64 {
        self.shared.state.lock().core.events_seen
    }

    /// Write the frame `make` builds; returns its request id.
    fn send(&self, make: impl FnOnce(u64) -> Frame) -> Result<u64> {
        let (id, bytes) = {
            let mut state = self.shared.state.lock();
            if let Some(e) = state.core.terminal() {
                return Err(e);
            }
            state.core.request(make)
        };
        if let Err(e) = self.stream.lock().write_all(&bytes) {
            self.shared.state.lock().core.cancel(id);
            return Err(e.into());
        }
        Ok(id)
    }

    /// Block until `ready` takes what the call waits for from the state;
    /// `None` once `deadline` passes or the connection is poisoned. While
    /// nobody else holds the read side the call holds it and reads the
    /// socket itself, waking the other waiting calls after each read;
    /// else it waits to be woken by whoever reads, and asks the reader
    /// thread to let the side go.
    fn until<T>(
        &self,
        deadline: Instant,
        mut ready: impl FnMut(&mut State) -> Option<T>,
    ) -> Option<T> {
        let shared = &*self.shared;
        let mut state = shared.state.lock();
        let mut side = None;
        let found = loop {
            if let Some(found) = ready(&mut state) {
                break Some(found);
            }
            if state.core.fatal.is_some() || Instant::now() >= deadline {
                break None;
            }
            if side.is_none() {
                side = state.side.take();
            }
            match side.as_mut() {
                Some(side) => {
                    drop(state);
                    state = side.read(shared, Some(CALLER_TICK));
                    shared.wake(&state);
                }
                None => {
                    state.waiting += 1;
                    wait_until(&shared.changed, &mut state, deadline);
                    state.waiting -= 1;
                }
            }
        };
        if side.is_some() {
            state.side = side;
            shared.wake(&state);
        }
        state.last_call = Instant::now();
        found
    }

    /// Block until request `id` completes, or the reply timeout.
    fn wait(&self, id: u64) -> Result<Frame> {
        let deadline = Instant::now() + self.reply_timeout;
        let reply = self.until(deadline, |state| {
            let i = state.done.iter().position(|c| c.id == id)?;
            Some(state.done.swap_remove(i).reply)
        });
        reply.unwrap_or_else(|| {
            let mut state = self.shared.state.lock();
            state.core.cancel(id);
            Err(state.core.terminal().unwrap_or(NetError::Timeout))
        })
    }

    /// Send the request `make` builds and block until it is answered.
    fn request(&self, make: impl FnOnce(u64) -> Frame) -> Result<Frame> {
        let _serial = self.request_lock.lock();
        let id = self.send(make)?;
        self.wait(id)
    }

    /// Subscribe to a document by name; returns its id once the mirror
    /// is loaded from the initial snapshot, or resumed by a delta if it
    /// was kept since the document was last closed.
    pub fn subscribe(&self, name: &str) -> Result<u64> {
        let name = name.into();
        let subscribe = |request| Frame::Subscribe {
            request,
            name,
            resume: None,
        };
        match self.request(subscribe)? {
            Frame::Snapshot { doc, .. } | Frame::Delta { doc, .. } => Ok(doc),
            other => Err(unexpected(other)),
        }
    }

    /// Drop the subscription; the mirror is kept, frozen, for the next
    /// `subscribe` of the document to resume.
    pub fn unsubscribe(&self, doc: u64) -> Result<()> {
        self.send(|_| Frame::Unsubscribe { doc }).map(drop)
    }

    /// Insert `text` at `pos` (a position in the client's current view;
    /// the server clamps it against the freshest state). Returns
    /// `(op, commit_ts)`.
    pub fn insert(&self, doc: u64, pos: usize, text: &str) -> Result<(u64, u64)> {
        self.edit(
            doc,
            EditOp::Insert {
                pos: pos as u64,
                text: text.into(),
            },
        )
    }

    /// Delete `len` characters at `pos`. Returns `(op, commit_ts)`.
    pub fn delete(&self, doc: u64, pos: usize, len: usize) -> Result<(u64, u64)> {
        self.edit(
            doc,
            EditOp::Delete {
                pos: pos as u64,
                len: len as u64,
            },
        )
    }

    fn edit(&self, doc: u64, op: EditOp) -> Result<(u64, u64)> {
        match self.request(|request| Frame::Edit { request, doc, op })? {
            Frame::EditOk { op, commit_ts, .. } => Ok((op, commit_ts)),
            Frame::EditRejected { message, .. } => Err(NetError::Remote {
                code: codes::REJECTED,
                message,
            }),
            other => Err(unexpected(other)),
        }
    }

    fn with_mirror<T>(&self, doc: u64, f: impl FnOnce(&MirrorDoc) -> T) -> Option<T> {
        self.shared.state.lock().core.mirror(doc).map(f)
    }

    /// The mirrored text of a subscribed document.
    pub fn text(&self, doc: u64) -> Option<String> {
        self.with_mirror(doc, MirrorDoc::text)
    }

    /// The mirror's frontier: it holds every commit of the document at or
    /// below this timestamp, and none above.
    pub fn synced_ts(&self, doc: u64) -> Option<u64> {
        self.with_mirror(doc, MirrorDoc::synced_ts)
    }

    /// Mirror internals for diagnostics: `(synced_ts, needs_resync,
    /// applied)`.
    pub fn mirror_status(&self, doc: u64) -> Option<(u64, bool, u64)> {
        self.with_mirror(doc, |m| (m.synced_ts(), m.needs_resync(), m.applied()))
    }

    /// Whether the mirror has flagged itself for resync.
    pub fn needs_resync(&self, doc: u64) -> bool {
        self.with_mirror(doc, MirrorDoc::needs_resync)
            .unwrap_or(false)
    }

    /// Request a fresh snapshot and reload the mirror.
    pub fn resync(&self, doc: u64) -> Result<()> {
        self.request(|request| Frame::Resync { request, doc })
            .map(drop)
    }

    /// Block until the mirror's frontier reaches `ts` (or timeout),
    /// resyncing a mirror that flagged itself: then it holds every commit
    /// of the document at or below `ts`. Returns `true` on success.
    pub fn wait_synced(&self, doc: u64, ts: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // `Some(false)`: the mirror flagged itself short of `ts`.
            let synced = self.until(deadline, |state| {
                let m = state.core.mirror(doc)?;
                let synced = m.synced_ts() >= ts;
                (synced || m.needs_resync()).then_some(synced)
            });
            match synced {
                Some(true) => return true,
                // Resync needs the request path, with the side let go.
                Some(false) if self.resync(doc).is_ok() => {}
                _ => return false,
            }
        }
    }

    /// Publish cursor/selection awareness for a document.
    pub fn awareness(
        &self,
        doc: u64,
        cursor: Option<usize>,
        selection: Option<(usize, usize)>,
    ) -> Result<()> {
        self.send(|_| Frame::Awareness {
            doc,
            cursor: cursor.map(|c| c as u64),
            selection: selection.map(|(a, b)| (a as u64, b as u64)),
        })
        .map(drop)
    }

    /// Who is editing `doc` right now, per the server's registry.
    pub fn presence(&self, doc: u64) -> Result<Vec<WirePresence>> {
        match self.request(|_| Frame::PresenceQuery { doc })? {
            Frame::Presence { entries, .. } => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&self) -> Result<()> {
        self.request(|nonce| Frame::Ping { nonce }).map(drop)
    }

    /// Graceful close: `Bye`, then tear down the reader.
    pub fn close(&mut self) {
        let _ = self.send(|_| Frame::Bye);
        let _ = self.stream.lock().shutdown(std::net::Shutdown::Both);
        // The reader thread may be waiting for the calls, not in a read.
        drop(self.shared.state.lock().core.fail(NetError::Closed));
        self.shared.quiet.notify_all();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// A reply of the wrong kind for its request (a server bug or a hostile
/// peer).
fn unexpected(reply: Frame) -> NetError {
    NetError::Protocol(format!("unexpected reply 0x{:02x}", reply.tag()))
}

/// The reader thread: it reads the socket while no call does, so that
/// the mirrors keep up with no call in progress. It takes the read side
/// once the calls have been quiet for [`HANDOVER`], reads with no
/// timeout (an idle connection wakes it for nothing), and lets the side
/// go after the first read that finds a call waiting for it. While calls
/// keep coming it wakes once a handover to look, never once a call. It
/// ends when the core is poisoned: the connection ended or was closed.
fn reader_loop(shared: &ClientShared) {
    let mut state = shared.state.lock();
    loop {
        let mut side = loop {
            if state.core.fatal.is_some() {
                return;
            }
            let (now, quiet) = (Instant::now(), state.last_call + HANDOVER);
            if now < quiet {
                wait_until(&shared.quiet, &mut state, quiet);
            } else if let Some(side) = state.side.take() {
                break side;
            } else {
                // A call holds the side: look again a handover on.
                wait_until(&shared.quiet, &mut state, now + HANDOVER);
            }
        };
        drop(state);
        state = loop {
            let state = side.read(shared, None);
            if state.core.fatal.is_some() || state.waiting > 0 {
                break state;
            }
        };
        state.side = Some(side);
        // As if a call just ended: the thread must not take the side back
        // before the call it wakes has.
        state.last_call = Instant::now();
        shared.wake(&state);
    }
}
