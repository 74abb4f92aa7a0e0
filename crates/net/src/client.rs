//! The TCP collaboration client.
//!
//! [`NetClient`] opens one connection, performs the `Hello`/`Welcome`
//! handshake synchronously, then spawns a reader thread that routes
//! incoming frames: committed `Event`s feed per-document [`MirrorDoc`]
//! replicas, reply frames (`Snapshot`, `EditOk`, `Presence`, `Pong`)
//! wake the caller blocked in [`NetClient::subscribe`] & co. The
//! request API is synchronous and serialized — one outstanding request
//! per connection — which matches the editor usage pattern and keeps
//! the protocol state machine trivial.
//!
//! An unsolicited `Snapshot` (the server's slow-consumer recovery path)
//! reloads the mirror transparently. A terminal `Error` frame (auth,
//! slow consumer, protocol) poisons the client: every subsequent call
//! returns the remote error.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{NetError, Result};
use crate::mirror::MirrorDoc;
use crate::protocol::{EditOp, Frame, WirePresence, PROTOCOL_VERSION, TAG_SNAPSHOT};
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

/// What the single outstanding request is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Nothing,
    Snapshot { doc: Option<u64> },
    EditReply { request: u64 },
    Presence { doc: u64 },
    Pong { nonce: u64 },
}

impl Expect {
    fn matches(&self, frame: &Frame) -> bool {
        match (self, frame) {
            (Expect::Snapshot { doc: None }, Frame::Snapshot { .. }) => true,
            (Expect::Snapshot { doc: Some(d) }, Frame::Snapshot { doc, .. }) => d == doc,
            (Expect::EditReply { request }, Frame::EditOk { request: r, .. }) => request == r,
            (Expect::EditReply { request }, Frame::EditRejected { request: r, .. }) => request == r,
            (Expect::Presence { doc }, Frame::Presence { doc: d, .. }) => doc == d,
            (Expect::Pong { nonce }, Frame::Pong { nonce: n }) => nonce == n,
            _ => false,
        }
    }
}

#[derive(Debug)]
struct ReplyState {
    expect: Expect,
    reply: Option<Result<Frame>>,
}

#[derive(Debug)]
struct ClientShared {
    mirrors: Mutex<HashMap<u64, MirrorDoc>>,
    /// Signalled whenever a mirror advances (for wait helpers).
    progress: Condvar,
    reply: Mutex<ReplyState>,
    reply_cv: Condvar,
    /// Terminal error: the connection is unusable.
    fatal: Mutex<Option<String>>,
    /// Event frames seen by the reader (diagnostics).
    events_seen: AtomicU64,
}

impl ClientShared {
    fn poison(&self, message: String) {
        let mut fatal = self.fatal.lock();
        if fatal.is_none() {
            *fatal = Some(message.clone());
        }
        drop(fatal);
        let mut r = self.reply.lock();
        if r.expect != Expect::Nothing {
            r.reply = Some(Err(NetError::Protocol(message)));
            r.expect = Expect::Nothing;
        }
        self.reply_cv.notify_all();
        self.progress.notify_all();
    }
}

/// A connected TCP collaboration client.
#[derive(Debug)]
pub struct NetClient {
    stream: Mutex<TcpStream>,
    shared: Arc<ClientShared>,
    session: u64,
    next_request: AtomicU64,
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
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;

        // Synchronous handshake before the reader thread exists.
        stream.set_read_timeout(Some(config.reply_timeout))?;
        stream.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                user: user.into(),
                platform: config.platform.clone(),
                token: config.token.clone(),
            }
            .encode(),
        )?;
        let mut buf = FrameBuffer::default();
        let mut scratch = [0u8; 4096];
        let session = loop {
            if let Some((tag, payload)) = buf.try_frame()? {
                match Frame::decode(tag, &payload)? {
                    Frame::Welcome { session } => break session,
                    Frame::Error { code, message } => {
                        return Err(NetError::Remote { code, message })
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "expected Welcome, got frame 0x{:02x}",
                            other.tag()
                        )))
                    }
                }
            }
            match stream.read(&mut scratch) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => buf.extend(&scratch[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(NetError::Timeout)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        };
        stream.set_read_timeout(None)?;

        let shared = Arc::new(ClientShared {
            mirrors: Mutex::new(HashMap::new()),
            progress: Condvar::new(),
            reply: Mutex::new(ReplyState {
                expect: Expect::Nothing,
                reply: None,
            }),
            reply_cv: Condvar::new(),
            fatal: Mutex::new(None),
            events_seen: AtomicU64::new(0),
        });

        let reader = {
            let shared = Arc::clone(&shared);
            let stream = stream.try_clone()?;
            std::thread::Builder::new()
                .name("tendax-net-client".into())
                .spawn(move || reader_loop(stream, shared, buf))
                .expect("spawn client reader")
        };

        Ok(NetClient {
            stream: Mutex::new(stream),
            shared,
            session,
            next_request: AtomicU64::new(1),
            reply_timeout: config.reply_timeout,
            request_lock: Mutex::new(()),
            reader: Some(reader),
        })
    }

    /// The session id the server assigned in `Welcome`.
    pub fn session(&self) -> u64 {
        self.session
    }

    fn check_fatal(&self) -> Result<()> {
        match &*self.shared.fatal.lock() {
            Some(msg) => Err(NetError::Protocol(msg.clone())),
            None => Ok(()),
        }
    }

    /// The terminal error that poisoned this connection, if any.
    pub fn fatal(&self) -> Option<String> {
        self.shared.fatal.lock().clone()
    }

    /// Total `Event` frames received on this connection (diagnostics).
    pub fn events_seen(&self) -> u64 {
        self.shared.events_seen.load(Ordering::Relaxed)
    }

    fn send(&self, frame: &Frame) -> Result<()> {
        self.check_fatal()?;
        self.stream.lock().write_all(&frame.encode())?;
        Ok(())
    }

    /// Send `frame` and block until a frame matching `expect` arrives.
    fn request(&self, frame: Frame, expect: Expect) -> Result<Frame> {
        let _serial = self.request_lock.lock();
        self.check_fatal()?;
        {
            let mut r = self.shared.reply.lock();
            r.expect = expect;
            r.reply = None;
        }
        if let Err(e) = self.send(&frame) {
            self.shared.reply.lock().expect = Expect::Nothing;
            return Err(e);
        }
        let deadline = Instant::now() + self.reply_timeout;
        let mut r = self.shared.reply.lock();
        loop {
            if let Some(reply) = r.reply.take() {
                r.expect = Expect::Nothing;
                return reply;
            }
            let now = Instant::now();
            if now >= deadline
                || self
                    .shared
                    .reply_cv
                    .wait_for(&mut r, deadline - now)
                    .timed_out()
            {
                r.expect = Expect::Nothing;
                return Err(NetError::Timeout);
            }
        }
    }

    /// Subscribe to a document by name; returns its id once the initial
    /// snapshot has loaded into the local mirror.
    pub fn subscribe(&self, name: &str) -> Result<u64> {
        match self.request(
            Frame::Subscribe { name: name.into() },
            Expect::Snapshot { doc: None },
        )? {
            Frame::Snapshot { doc, .. } => Ok(doc),
            other => Err(NetError::Protocol(format!(
                "unexpected reply 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Drop the subscription and the local mirror.
    pub fn unsubscribe(&self, doc: u64) -> Result<()> {
        self.send(&Frame::Unsubscribe { doc })?;
        self.shared.mirrors.lock().remove(&doc);
        Ok(())
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
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        match self.request(
            Frame::Edit { request, doc, op },
            Expect::EditReply { request },
        )? {
            Frame::EditOk { op, commit_ts, .. } => Ok((op, commit_ts)),
            Frame::EditRejected { message, .. } => Err(NetError::Remote {
                code: crate::error::codes::REJECTED,
                message,
            }),
            other => Err(NetError::Protocol(format!(
                "unexpected reply 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// The mirrored text of a subscribed document.
    pub fn text(&self, doc: u64) -> Option<String> {
        self.shared.mirrors.lock().get(&doc).map(|m| m.text())
    }

    /// Commit-timestamp frontier of the mirror.
    pub fn synced_ts(&self, doc: u64) -> Option<u64> {
        self.shared.mirrors.lock().get(&doc).map(|m| m.synced_ts())
    }

    /// Mirror internals for diagnostics: `(synced_ts, buffered,
    /// needs_resync, applied)`.
    pub fn mirror_status(&self, doc: u64) -> Option<(u64, usize, bool, u64)> {
        self.shared
            .mirrors
            .lock()
            .get(&doc)
            .map(|m| (m.synced_ts(), m.buffered(), m.needs_resync(), m.applied()))
    }

    /// Whether the mirror has flagged itself for resync.
    pub fn needs_resync(&self, doc: u64) -> bool {
        self.shared
            .mirrors
            .lock()
            .get(&doc)
            .is_some_and(|m| m.needs_resync())
    }

    /// Request a fresh snapshot and reload the mirror.
    pub fn resync(&self, doc: u64) -> Result<()> {
        self.request(Frame::Resync { doc }, Expect::Snapshot { doc: Some(doc) })?;
        Ok(())
    }

    /// Block until the mirror's frontier reaches `ts` (or timeout).
    /// Returns `true` on success.
    pub fn wait_synced(&self, doc: u64, ts: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut mirrors = self.shared.mirrors.lock();
        loop {
            match mirrors.get(&doc) {
                Some(m) if m.synced_ts() >= ts => return true,
                Some(m) if m.needs_resync() => {
                    // Resync needs the request path; do it unlocked.
                    drop(mirrors);
                    if self.resync(doc).is_err() {
                        return false;
                    }
                    mirrors = self.shared.mirrors.lock();
                }
                _ => {
                    let now = Instant::now();
                    if now >= deadline
                        || self
                            .shared
                            .progress
                            .wait_for(&mut mirrors, deadline - now)
                            .timed_out()
                    {
                        return false;
                    }
                }
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
        self.send(&Frame::Awareness {
            doc,
            cursor: cursor.map(|c| c as u64),
            selection: selection.map(|(a, b)| (a as u64, b as u64)),
        })
    }

    /// Who is editing `doc` right now, per the server's registry.
    pub fn presence(&self, doc: u64) -> Result<Vec<WirePresence>> {
        match self.request(Frame::PresenceQuery { doc }, Expect::Presence { doc })? {
            Frame::Presence { entries, .. } => Ok(entries),
            other => Err(NetError::Protocol(format!(
                "unexpected reply 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&self) -> Result<()> {
        let nonce = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.request(Frame::Ping { nonce }, Expect::Pong { nonce })?;
        Ok(())
    }

    /// Graceful close: `Bye`, then tear down the reader.
    pub fn close(&mut self) {
        let _ = self.send(&Frame::Bye);
        let _ = self.stream.lock().shutdown(std::net::Shutdown::Both);
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

/// Decode one incoming frame. A `Snapshot` goes from its wire bytes
/// straight into the document's mirror; what comes back for it carries
/// only the header (`chars` empty), which is all a waiting `subscribe` or
/// `resync` reads.
///
/// A snapshot replaces a mirror, but creates one only while a `subscribe`
/// or `resync` waits for it: a recovery snapshot that crosses an
/// `unsubscribe` must not bring back a mirror no event will reach.
fn decode_incoming(shared: &ClientShared, tag: u8, payload: &[u8]) -> Result<Frame> {
    if tag != TAG_SNAPSHOT {
        return Frame::decode(tag, payload);
    }
    let fresh = MirrorDoc::from_snapshot_payload(payload)?;
    let header = Frame::Snapshot {
        doc: fresh.doc(),
        synced_ts: fresh.synced_ts(),
        chars: Vec::new(),
    };
    let asked = shared.reply.lock().expect.matches(&header);
    let mut mirrors = shared.mirrors.lock();
    match mirrors.get_mut(&fresh.doc()) {
        Some(m) => m.reload(fresh),
        None if asked => {
            mirrors.insert(fresh.doc(), fresh);
        }
        None => {}
    }
    shared.progress.notify_all();
    Ok(header)
}

fn reader_loop(mut stream: TcpStream, shared: Arc<ClientShared>, mut buf: FrameBuffer) {
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let frame = loop {
            match buf.next_frame() {
                Ok(Some((tag, payload))) => match decode_incoming(&shared, tag, payload) {
                    Ok(f) => break f,
                    Err(e) => {
                        shared.poison(format!("undecodable frame from server: {e}"));
                        return;
                    }
                },
                Ok(None) => {}
                Err(e) => {
                    shared.poison(format!("framing error from server: {e}"));
                    return;
                }
            }
            match stream.read(&mut scratch) {
                Ok(0) => {
                    shared.poison(NetError::Closed.to_string());
                    return;
                }
                Ok(n) => buf.extend(&scratch[..n]),
                Err(e) => {
                    shared.poison(format!("read error: {e}"));
                    return;
                }
            }
        };

        // Mirror maintenance happens for every Event/Snapshot, solicited
        // or not (a snapshot was loaded as it was decoded); reply delivery
        // is separate, and a snapshot may also be the reply to
        // Subscribe/Resync.
        if let Frame::Event(ev) = frame {
            shared.events_seen.fetch_add(1, Ordering::Relaxed);
            let mut mirrors = shared.mirrors.lock();
            if let Some(m) = mirrors.get_mut(&ev.doc) {
                m.apply_event(ev);
                shared.progress.notify_all();
            }
            continue;
        }

        let mut r = shared.reply.lock();
        if r.expect.matches(&frame) {
            r.reply = Some(Ok(frame));
            r.expect = Expect::Nothing;
            shared.reply_cv.notify_all();
        } else if let Frame::Error { code, message } = frame {
            // An error frame outside a request is terminal (e.g. the
            // slow-consumer cut); inside a request it answers it.
            if r.expect != Expect::Nothing {
                r.reply = Some(Err(NetError::Remote { code, message }));
                r.expect = Expect::Nothing;
                shared.reply_cv.notify_all();
            } else {
                drop(r);
                shared.poison(NetError::Remote { code, message }.to_string());
                return;
            }
        }
    }
}
