//! The TCP collaboration server.
//!
//! Multiplexes many client connections over one [`CollabServer`]. A
//! connection is two threads whatever it subscribes to: a reader
//! (handshake, then frame decode and request dispatch against a
//! server-side [`EditorSession`], so edits reuse the retry/awareness
//! machinery) and a writer draining a **bounded** outbound queue onto
//! the socket. The session owns no copy of a document: a subscription
//! borrows the collab server's live one ([`tendax_collab::live`]), edits
//! through it and is sent snapshots encoded from it. No thread stands between a commit and the subscribers'
//! queues: the server keeps a registry of which connections subscribe
//! to which document, and a publish hook on the [`LanBus`] runs on
//! the committing thread, encodes the `Event` frame once and pushes the
//! shared bytes onto each subscriber's queue.
//!
//! ## Ack first
//!
//! An `Edit`'s reply is queued before its broadcast: the typist's
//! acknowledgement never waits for the fan-out, and an edit's `EditOk`
//! is never queued after its own echo. The broadcast goes out even if
//! the reply could not be queued — the edit is committed, and the other
//! subscribers are owed it.
//!
//! ## Subscribe before snapshot
//!
//! A subscription enters the registry *before* its snapshot is taken,
//! with its event stream gated: events are held back until the snapshot
//! frame is queued, then follow it. A `Snapshot{synced_ts = F}` holds
//! every commit on its document at or below `F` (the live document's
//! frontier), so no committed event falls between the snapshot and the
//! stream, and none precedes the snapshot (events the snapshot already
//! covers are dropped client-side by the ts gate).
//!
//! ## Slow-consumer policy
//!
//! The outbound queue has a fixed capacity. `Event` frames are offered
//! without waiting: when the queue is full the frame is dropped and
//! counted as lag, and that document's stream is *lost* — the client has
//! a gap it cannot detect, so further events of the document are
//! suppressed (each counted as lag) until a recovery snapshot. Recovery
//! belongs to the one thread that knows when the client can take a
//! frame: once the writer has drained the queue it marks the stream
//! whole again (resetting that stream's lag, and only that stream's)
//! and writes the live document's snapshot. Neither that nor a `Resync`
//! is a read by the user: only `Subscribe` records one. Reply frames
//! (`Snapshot`, `EditOk`, `Pong`, …) are *critical*: the sender waits up
//! to `critical_send_timeout` for queue space. A client is cut — queue
//! cleared, a final `Error{SLOW_CONSUMER}`, socket closed — when its
//! outstanding lag passes `lag_limit`, when a critical frame cannot be
//! queued in time, or when a socket write times out (a peer that stops
//! reading long enough to fill the kernel buffer, recovery snapshot
//! included). This is the [`LanBus`] policy (bound, count, evict) plus
//! the resync step a remote mirror needs — one slow editor can never
//! wedge the server or the other editors.
//!
//! [`LanBus`]: tendax_collab::LanBus
//!
//! ## Error isolation
//!
//! A malformed frame, unknown tag, or protocol violation terminates
//! *that* connection with a typed error frame; every other connection
//! and the accept loop are untouched.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use tendax_collab::{CollabServer, DocEvent, EditorSession, LiveEditor, Platform};
use tendax_text::{DocId, TextError, UserId};

use crate::error::{codes, NetError, Result};
use crate::protocol::{
    encode_event, encode_snapshot, EditOp, Frame, WirePresence, PROTOCOL_VERSION,
};
use crate::wire::FrameBuffer;

/// Tuning knobs of the TCP server.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Shared secret required in `Hello::token`; `None` accepts any.
    pub token: Option<String>,
    /// Outbound queue capacity, in frames, per connection.
    pub outbound_capacity: usize,
    /// Dropped frames tolerated before a lagging connection is cut.
    pub lag_limit: u64,
    /// How long a critical (reply) frame may wait for queue space, and a
    /// socket write for the peer to read.
    pub critical_send_timeout: Duration,
    /// Socket read timeout of the per-connection reader loop; bounds
    /// how quickly kill flags and shutdown are observed.
    pub read_tick: Duration,
    /// Maximum simultaneously served connections. Excess clients are
    /// turned away with a `Frame::Error { code: CAPACITY }` goodbye
    /// before any per-connection threads or sessions exist, so an
    /// accept flood cannot exhaust the process.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            token: None,
            outbound_capacity: 1024,
            lag_limit: 256,
            critical_send_timeout: Duration::from_secs(5),
            read_tick: Duration::from_millis(100),
            max_connections: 256,
        }
    }
}

/// Counters exposed by [`NetServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted (including ones that failed the handshake).
    pub accepted: u64,
    /// Handshakes rejected (bad version, unknown user, bad token).
    pub auth_failures: u64,
    /// Connections dropped for malformed frames / protocol violations.
    pub protocol_errors: u64,
    /// Connections dropped by the slow-consumer policy.
    pub slow_disconnects: u64,
    /// Event frames dropped at full outbound queues, or suppressed on a
    /// lost stream, across all connections.
    pub frames_dropped: u64,
    /// Event frames queued for a subscriber across all connections.
    pub events_forwarded: u64,
    /// Connections turned away at the `max_connections` limit.
    pub capacity_rejects: u64,
    /// Always zero: no thread stands between a publish and the queues to
    /// wake up idle. The field stays because the benchmark reports it.
    pub pool_spurious_wakeups: u64,
    /// Frames the writers put on sockets.
    pub frames_written: u64,
    /// Socket writes those frames travelled in: a writer drains its
    /// whole queue into one write, so an `EditOk` and the typist's own
    /// echo leave — and wake the client — together.
    pub socket_writes: u64,
    /// Documents with a live copy right now (a gauge): the subscribed.
    pub live_documents: u64,
    /// Snapshots encoded from a live copy: subscribe, resync, recovery.
    pub snapshots_served: u64,
    /// Live copies built from the database: a first subscriber, or a copy
    /// found stale. `snapshots_served` over this = opens per chain walk.
    pub live_loads: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    accepted: AtomicU64,
    auth_failures: AtomicU64,
    protocol_errors: AtomicU64,
    slow_disconnects: AtomicU64,
    frames_dropped: AtomicU64,
    events_forwarded: AtomicU64,
    capacity_rejects: AtomicU64,
    frames_written: AtomicU64,
    socket_writes: AtomicU64,
}

/// One encoded frame, shared by every queue it sits in.
type Bytes = Arc<[u8]>;

/// What became of an event offered to a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offered {
    /// In the outbound queue.
    Queued,
    /// Dropped (queue full) or suppressed (stream lost): counted as lag.
    Dropped,
    /// Held behind the subscription's snapshot, or not subscribed.
    Parked,
}

/// The event stream of one subscribed document on one connection.
#[derive(Debug, Default)]
struct Stream {
    /// Events waiting for the subscription's snapshot to be queued ahead
    /// of them; `None` once it has been.
    held: Option<Vec<Bytes>>,
    /// A frame was dropped: nothing more of this document is sent until
    /// the writer's recovery snapshot.
    lost: bool,
    /// Frames dropped or suppressed since the stream was last whole.
    lagged: u64,
}

/// Bounded outbound frame queue with a kill switch, and the state of the
/// connection's event streams — under one lock, so "is this stream
/// whole?" and "is there room?" are one question.
#[derive(Debug)]
struct OutQueue {
    state: Mutex<QueueState>,
    /// Signalled when the parked writer has something to do.
    data: Condvar,
    /// Signalled when space frees up (critical senders wait on this).
    space: Condvar,
    capacity: usize,
    /// Outstanding lag summed over the connection's streams (maintained
    /// under the lock; read without it by the reader's limit check).
    lagged: AtomicU64,
}

#[derive(Debug, Default)]
struct QueueState {
    frames: VecDeque<Bytes>,
    /// No more pushes; the writer drains what remains, then closes.
    closing: bool,
    streams: HashMap<DocId, Stream>,
    /// Lost streams the writer has yet to recover.
    recover: Vec<DocId>,
    /// The writer is (about to be) asleep on `data`: only then is a
    /// notification — a system call — worth making.
    writer_parked: bool,
    /// Critical senders asleep on `space`.
    space_waiters: usize,
}

impl OutQueue {
    fn new(capacity: usize) -> Self {
        OutQueue {
            state: Mutex::new(QueueState::default()),
            data: Condvar::new(),
            space: Condvar::new(),
            capacity,
            lagged: AtomicU64::new(0),
        }
    }

    fn wake_writer(&self, parked: &mut bool) {
        if std::mem::take(parked) {
            self.data.notify_one();
        }
    }

    /// Start a subscription's event stream, gated: events are held until
    /// [`OutQueue::release_stream`].
    fn open_stream(&self, doc: DocId) {
        let gated = Stream {
            held: Some(Vec::new()),
            ..Stream::default()
        };
        self.state.lock().streams.insert(doc, gated);
    }

    /// The subscription's snapshot is queued: queue what was held behind
    /// it and let events through from now on. Returns how many held
    /// events were `(queued, dropped)`.
    fn release_stream(&self, doc: DocId) -> (u64, u64) {
        let mut s = self.state.lock();
        let held = s.streams.get_mut(&doc).and_then(|st| st.held.take());
        let (mut queued, mut dropped) = (0, 0);
        for frame in held.unwrap_or_default() {
            match self.offer(&mut s, doc, frame) {
                Offered::Queued => queued += 1,
                Offered::Dropped => dropped += 1,
                Offered::Parked => {}
            }
        }
        (queued, dropped)
    }

    /// End a subscription's event stream, forgetting its lag.
    fn close_stream(&self, doc: DocId) {
        let mut s = self.state.lock();
        if let Some(stream) = s.streams.remove(&doc) {
            self.lagged.fetch_sub(stream.lagged, Ordering::Relaxed);
        }
        s.recover.retain(|d| *d != doc);
    }

    /// Offer one of `doc`'s events without waiting. Full queue = drop,
    /// lag, and the stream is lost until the writer recovers it.
    fn push_event(&self, doc: DocId, frame: &Bytes) -> Offered {
        let mut s = self.state.lock();
        self.offer(&mut s, doc, Arc::clone(frame))
    }

    fn offer(&self, s: &mut QueueState, doc: DocId, frame: Bytes) -> Offered {
        if s.closing {
            return Offered::Parked;
        }
        let Some(stream) = s.streams.get_mut(&doc) else {
            return Offered::Parked;
        };
        if !stream.lost {
            match &mut stream.held {
                Some(held) if held.len() < self.capacity => {
                    held.push(frame);
                    return Offered::Parked;
                }
                None if s.frames.len() < self.capacity => {
                    s.frames.push_back(frame);
                    self.wake_writer(&mut s.writer_parked);
                    return Offered::Queued;
                }
                _ => {}
            }
            stream.lost = true;
            s.recover.push(doc);
            self.wake_writer(&mut s.writer_parked);
        }
        stream.lagged += 1;
        self.lagged.fetch_add(1, Ordering::Relaxed);
        Offered::Dropped
    }

    /// Enqueue a reply frame, waiting up to `timeout` for space.
    fn push_critical(&self, frame: Bytes, timeout: Duration) -> Result<()> {
        let mut s = self.state.lock();
        loop {
            if s.closing {
                return Err(NetError::Closed);
            }
            if s.frames.len() < self.capacity {
                s.frames.push_back(frame);
                self.wake_writer(&mut s.writer_parked);
                return Ok(());
            }
            s.space_waiters += 1;
            let timed_out = self.space.wait_for(&mut s, timeout).timed_out();
            s.space_waiters -= 1;
            if timed_out {
                return Err(NetError::SlowConsumer);
            }
        }
    }

    /// Discard everything queued, emit one final frame, and close.
    fn kill(&self, last_frame: Option<Bytes>) {
        let mut s = self.state.lock();
        if s.closing {
            return;
        }
        s.frames.clear();
        s.frames.extend(last_frame);
        s.closing = true;
        self.data.notify_all();
        self.space.notify_all();
    }

    /// Writer side: block until there are frames to write (moved into
    /// `frames`, all of them) or streams to recover; `false` once closed
    /// and drained.
    fn wait(&self, frames: &mut Vec<Bytes>) -> bool {
        let mut s = self.state.lock();
        loop {
            if !s.frames.is_empty() {
                frames.extend(s.frames.drain(..));
                if s.space_waiters > 0 {
                    self.space.notify_all();
                }
                return true;
            }
            if s.closing {
                return false;
            }
            if !s.recover.is_empty() {
                return true;
            }
            s.writer_parked = true;
            self.data.wait(&mut s);
            s.writer_parked = false;
        }
    }

    /// Writer side: the lost streams, each made whole again — its lag
    /// forgiven (and no other stream's), its events flowing into the
    /// queue from here on. The caller now owes each a snapshot opened
    /// *after* this call, which is what makes the stream whole: whatever
    /// was dropped committed before it, whatever it misses is queued
    /// behind it.
    fn take_lost(&self, docs: &mut Vec<DocId>) {
        let mut s = self.state.lock();
        let s = &mut *s;
        if s.closing {
            return;
        }
        for doc in s.recover.drain(..) {
            if let Some(stream) = s.streams.get_mut(&doc) {
                stream.lost = false;
                self.lagged
                    .fetch_sub(std::mem::take(&mut stream.lagged), Ordering::Relaxed);
                docs.push(doc);
            }
        }
    }

    fn lagged(&self) -> u64 {
        self.lagged.load(Ordering::Relaxed)
    }
}

/// Handles shared between a connection's threads and the publishers.
#[derive(Debug)]
struct ConnShared {
    queue: OutQueue,
    /// Set when any thread decides the connection must die.
    dead: AtomicBool,
    stream: TcpStream,
    /// Who the connection authenticated as (set by the handshake, before
    /// any subscription): recovery snapshots are checked against them.
    user: OnceLock<UserId>,
}

impl ConnShared {
    fn kill(&self, last_frame: Option<Frame>) {
        self.dead.store(true, Ordering::Release);
        self.queue.kill(last_frame.map(|f| f.encode().into()));
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }
}

/// What the accept loop, every connection and the publish hook share.
#[derive(Debug)]
struct Hub {
    collab: CollabServer,
    config: NetConfig,
    stats: StatCells,
    /// Live connections, for shutdown.
    conns: Mutex<Vec<Arc<ConnShared>>>,
    /// Which connections an event of a document goes to.
    subscribers: RwLock<HashMap<DocId, Vec<Arc<ConnShared>>>>,
}

impl Hub {
    /// The publish hook's body, on the committing thread: encode the
    /// `Event` frame once, offer the shared bytes to every subscriber.
    /// Publishers of any documents share the registry lock; it is only
    /// taken exclusively to subscribe or unsubscribe.
    fn fan_out(&self, ev: &DocEvent) {
        let subscribers = self.subscribers.read();
        let Some(conns) = subscribers.get(&ev.doc) else {
            return;
        };
        let frame: Bytes = encode_event(ev).into();
        let (mut queued, mut dropped) = (0, 0);
        for conn in conns {
            match conn.queue.push_event(ev.doc, &frame) {
                Offered::Queued => queued += 1,
                Offered::Dropped => dropped += 1,
                Offered::Parked => {}
            }
        }
        self.count_events(queued, dropped);
    }

    fn count_events(&self, queued: u64, dropped: u64) {
        self.stats
            .events_forwarded
            .fetch_add(queued, Ordering::Relaxed);
        self.stats
            .frames_dropped
            .fetch_add(dropped, Ordering::Relaxed);
    }

    fn subscribe(&self, doc: DocId, conn: &Arc<ConnShared>) {
        let mut subscribers = self.subscribers.write();
        subscribers.entry(doc).or_default().push(Arc::clone(conn));
    }

    fn unsubscribe(&self, doc: DocId, conn: &Arc<ConnShared>) {
        let mut subscribers = self.subscribers.write();
        if let Some(conns) = subscribers.get_mut(&doc) {
            conns.retain(|c| !Arc::ptr_eq(c, conn));
            if conns.is_empty() {
                subscribers.remove(&doc);
            }
        }
    }

    /// Drop every subscription of a connection that is going away.
    fn disconnect(&self, conn: &Arc<ConnShared>) {
        self.subscribers.write().retain(|_, conns| {
            conns.retain(|c| !Arc::ptr_eq(c, conn));
            !conns.is_empty()
        });
    }
}

/// A running TCP server. Dropping it shuts everything down.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    hub: Arc<Hub>,
}

/// Decrements the live-connection gauge when a connection thread exits,
/// however it exits.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl NetServer {
    /// Bind and start accepting. `addr` may use port 0 for an ephemeral
    /// port; see [`NetServer::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        collab: CollabServer,
        config: NetConfig,
    ) -> Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let hub = Arc::new(Hub {
            collab,
            config,
            stats: StatCells::default(),
            conns: Mutex::new(Vec::new()),
            subscribers: RwLock::new(HashMap::new()),
        });
        // Weak: the bus must not keep the server alive — once the
        // server is gone the hook deregisters itself by returning false.
        let weak = Arc::downgrade(&hub);
        hub.collab
            .transport()
            .register_publish_hook(Box::new(move |ev| match weak.upgrade() {
                Some(hub) => {
                    hub.fan_out(ev);
                    true
                }
                None => false,
            }));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let hub = Arc::clone(&hub);
            let live = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("tendax-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        hub.stats.accepted.fetch_add(1, Ordering::Relaxed);
                        if live.load(Ordering::Acquire) >= hub.config.max_connections {
                            hub.stats.capacity_rejects.fetch_add(1, Ordering::Relaxed);
                            reject_at_capacity(stream, hub.config.max_connections);
                            continue;
                        }
                        // Reap finished connections so the registry does
                        // not grow with server lifetime.
                        hub.conns.lock().retain(|c| !c.is_dead());
                        let hub = Arc::clone(&hub);
                        live.fetch_add(1, Ordering::AcqRel);
                        let guard = LiveGuard(Arc::clone(&live));
                        let spawned = std::thread::Builder::new()
                            .name("tendax-net-conn".into())
                            .spawn(move || {
                                let _guard = guard;
                                handle_connection(stream, hub);
                            });
                        // `guard` moved into the thread on success; a
                        // failed spawn drops it here, undoing the count.
                        let _ = spawned;
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(NetServer {
            addr,
            shutdown,
            accept: Some(accept),
            hub,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> NetServerStats {
        let cell = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let s = &self.hub.stats;
        let live = self.hub.collab.live().stats();
        NetServerStats {
            accepted: cell(&s.accepted),
            auth_failures: cell(&s.auth_failures),
            protocol_errors: cell(&s.protocol_errors),
            slow_disconnects: cell(&s.slow_disconnects),
            frames_dropped: cell(&s.frames_dropped),
            events_forwarded: cell(&s.events_forwarded),
            capacity_rejects: cell(&s.capacity_rejects),
            pool_spurious_wakeups: 0,
            frames_written: cell(&s.frames_written),
            socket_writes: cell(&s.socket_writes),
            live_documents: live.documents as u64,
            snapshots_served: live.snapshots,
            live_loads: live.loads,
        }
    }

    /// Stop accepting and tear down every live connection.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for conn in self.hub.conns.lock().drain(..) {
            conn.kill(None);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Turn away a connection at the capacity limit: best-effort drain of
/// the client's `Hello` (so closing the socket does not RST the goodbye
/// frame out of the peer's receive buffer), one typed `Error` frame,
/// close. Runs inline in the accept thread with short timeouts — no
/// per-connection threads or sessions are ever created for a rejected
/// client.
fn reject_at_capacity(stream: TcpStream, limit: usize) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut buf = FrameBuffer::default();
    let mut scratch = [0u8; 4096];
    let mut s = &stream;
    loop {
        match buf.try_frame() {
            Ok(Some(_)) | Err(_) => break,
            Ok(None) => {}
        }
        match s.read(&mut scratch) {
            Ok(n) if n > 0 => buf.extend(&scratch[..n]),
            _ => break,
        }
    }
    let _ = s.write_all(
        &Frame::Error {
            code: codes::CAPACITY,
            message: NetError::AtCapacity { limit }.to_string(),
        }
        .encode(),
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn platform_from_wire(s: &str) -> Platform {
    match s {
        "Windows XP" => Platform::WindowsXp,
        "Linux" => Platform::Linux,
        "Mac OS X" => Platform::MacOsX,
        other => Platform::Other(other.to_owned()),
    }
}

/// The `Error{REJECTED}` that answers a snapshot request the server cannot
/// serve, saying why (document gone, `Read` revoked, chain corrupt).
fn no_snapshot(doc: DocId, cause: &TextError) -> Frame {
    Frame::Error {
        code: codes::REJECTED,
        message: format!("cannot snapshot {doc}: {cause}"),
    }
}

/// A transport repair (resync, lost-stream recovery): the live copy's
/// encoded snapshot, or the frame that says why not; `None` if not live.
fn repair(hub: &Hub, doc: DocId, user: UserId) -> std::result::Result<Option<Vec<u8>>, Frame> {
    let snapshot = hub.collab.live().snapshot(doc, user, encode_snapshot);
    snapshot.map_err(|e| no_snapshot(doc, &e))
}

fn handle_connection(stream: TcpStream, hub: Arc<Hub>) {
    let _ = stream.set_nodelay(true);
    let (Ok(shared_stream), Ok(out)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let shared = Arc::new(ConnShared {
        queue: OutQueue::new(hub.config.outbound_capacity),
        dead: AtomicBool::new(false),
        stream: shared_stream,
        user: OnceLock::new(),
    });
    hub.conns.lock().push(Arc::clone(&shared));

    let writer = {
        let (hub, shared) = (Arc::clone(&hub), Arc::clone(&shared));
        std::thread::Builder::new()
            .name("tendax-net-writer".into())
            .spawn(move || writer_loop(out, &hub, &shared))
            .expect("spawn writer thread")
    };

    let result = serve_client(&stream, &hub, &shared);
    hub.disconnect(&shared);

    match result {
        Ok(()) => shared.kill(None),
        Err(err) => {
            let stats = &hub.stats;
            let (code, counts_as) = match &err {
                NetError::Auth(_) => (codes::AUTH, &stats.auth_failures),
                NetError::SlowConsumer => (codes::SLOW_CONSUMER, &stats.slow_disconnects),
                NetError::AtCapacity { .. } => (codes::CAPACITY, &stats.capacity_rejects),
                NetError::Io(_) | NetError::Closed => (0, &stats.accepted),
                _ => (codes::PROTOCOL, &stats.protocol_errors),
            };
            if code != 0 {
                counts_as.fetch_add(1, Ordering::Relaxed);
                shared.kill(Some(Frame::Error {
                    code,
                    message: err.to_string(),
                }));
            } else {
                shared.kill(None);
            }
        }
    }
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Frames up to this many bytes share a socket write with their
/// neighbours in the queue; a larger one (a snapshot) goes by itself
/// rather than through a copy.
const COALESCE_BYTES: usize = 64 * 1024;

/// The connection's writer: drains the bounded queue onto the socket —
/// every queued frame in one write — and, whenever it has done so and a
/// stream is lost, recovers it (see the module docs). The write timeout
/// is the last line of the slow-consumer defence: a peer that stops
/// reading long enough to fill the kernel buffer loses the connection
/// instead of pinning this thread forever.
fn writer_loop(mut out: TcpStream, hub: &Hub, shared: &ConnShared) {
    let _ = out.set_write_timeout(Some(hub.config.critical_send_timeout));
    let mut frames: Vec<Bytes> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    while shared.queue.wait(&mut frames) {
        let written = write_frames(&mut out, hub, &frames, &mut buf)
            .and_then(|()| recover_lost(&mut out, hub, shared));
        frames.clear();
        if let Err(e) = written {
            // A write timeout means the peer stopped reading long enough
            // to fill the kernel buffer: that is the slow-consumer policy
            // firing, not an I/O accident, so account for it as such.
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                hub.stats.slow_disconnects.fetch_add(1, Ordering::Relaxed);
            }
            shared.kill(None);
            break;
        }
    }
    let _ = out.shutdown(std::net::Shutdown::Both);
}

fn write_counted(
    out: &mut TcpStream,
    hub: &Hub,
    frames: usize,
    bytes: &[u8],
) -> std::io::Result<()> {
    hub.stats
        .frames_written
        .fetch_add(frames as u64, Ordering::Relaxed);
    hub.stats.socket_writes.fetch_add(1, Ordering::Relaxed);
    out.write_all(bytes)
}

fn write_frames(
    out: &mut TcpStream,
    hub: &Hub,
    frames: &[Bytes],
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    let mut coalesced = 0;
    for frame in frames {
        if buf.len() + frame.len() > COALESCE_BYTES {
            if coalesced > 0 {
                write_counted(out, hub, coalesced, buf)?;
                buf.clear();
                coalesced = 0;
            }
            if frame.len() > COALESCE_BYTES {
                write_counted(out, hub, 1, frame)?;
                continue;
            }
        }
        buf.extend_from_slice(frame);
        coalesced += 1;
    }
    if coalesced > 0 {
        write_counted(out, hub, coalesced, buf)?;
    }
    Ok(())
}

/// Make every lost stream whole again, then write each its snapshot —
/// in that order, so whatever the snapshot misses is queued behind it.
fn recover_lost(out: &mut TcpStream, hub: &Hub, shared: &ConnShared) -> std::io::Result<()> {
    let mut lost = Vec::new();
    shared.queue.take_lost(&mut lost);
    for doc in lost {
        let user = shared
            .user
            .get()
            .expect("subscriptions follow the handshake");
        match repair(hub, doc, *user) {
            Ok(Some(snapshot)) => write_counted(out, hub, 1, &snapshot)?,
            // Unsubscribed since the stream was lost.
            Ok(None) => {}
            // The client cannot be made consistent: say why and close.
            Err(why) => shared.kill(Some(why)),
        }
    }
    Ok(())
}

/// Read one frame, honoring the read-tick timeout: `Ok(None)` means the
/// tick elapsed with no complete frame (check flags and keep going).
fn read_tick(
    mut stream: &TcpStream,
    buf: &mut FrameBuffer,
    scratch: &mut [u8],
) -> Result<Option<(u8, Vec<u8>)>> {
    if let Some(frame) = buf.try_frame()? {
        return Ok(Some(frame));
    }
    match stream.read(scratch) {
        Ok(0) => Err(NetError::Closed),
        Ok(n) => {
            buf.extend(&scratch[..n]);
            buf.try_frame()
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Ok(None)
        }
        Err(e) => Err(NetError::Io(e)),
    }
}

fn serve_client(stream: &TcpStream, hub: &Hub, shared: &Arc<ConnShared>) -> Result<()> {
    let (collab, config) = (&hub.collab, &hub.config);
    stream.set_read_timeout(Some(config.read_tick))?;
    let mut buf = FrameBuffer::default();
    let mut scratch = vec![0u8; 64 * 1024];

    // --- Handshake: the first frame must be Hello. -------------------
    let hello = loop {
        if shared.is_dead() {
            return Ok(());
        }
        if let Some((tag, payload)) = read_tick(stream, &mut buf, &mut scratch)? {
            break Frame::decode(tag, &payload)?;
        }
    };
    let Frame::Hello {
        version,
        user,
        platform,
        token,
    } = hello
    else {
        return Err(NetError::Protocol(format!(
            "expected Hello, got frame 0x{:02x}",
            hello.tag()
        )));
    };
    if version != PROTOCOL_VERSION {
        return Err(NetError::Auth(format!(
            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
        )));
    }
    if let Some(required) = &config.token {
        if &token != required {
            return Err(NetError::Auth("bad token".into()));
        }
    }
    let session: EditorSession = collab
        .connect(&user, platform_from_wire(&platform))
        .map_err(|e| NetError::Auth(format!("unknown user {user:?}: {e}")))?;
    shared
        .user
        .set(session.user())
        .expect("one handshake per connection");
    let critical_bytes = |frame: Vec<u8>| -> Result<()> {
        shared
            .queue
            .push_critical(frame.into(), config.critical_send_timeout)
    };
    let critical = |frame: Frame| critical_bytes(frame.encode());
    critical(Frame::Welcome {
        session: session.id().0,
    })?;

    // --- Main loop. --------------------------------------------------
    // The connection's hold on the live copy of each subscribed document.
    // Dropping one clears this session's presence on the document.
    let mut subs: HashMap<DocId, LiveEditor> = HashMap::new();
    loop {
        if shared.is_dead() {
            return Ok(());
        }
        // Publishers and the writer count lag; the reader enforces the
        // limit so the error frame is produced exactly once.
        if shared.queue.lagged() > config.lag_limit {
            return Err(NetError::SlowConsumer);
        }
        let frame = match read_tick(stream, &mut buf, &mut scratch)? {
            None => continue,
            Some((tag, payload)) => Frame::decode(tag, &payload)?,
        };
        match frame {
            Frame::Subscribe { name } => {
                let doc = match collab.textdb().document_by_name(&name) {
                    Ok(doc) => doc,
                    Err(e) => {
                        critical(Frame::Error {
                            code: codes::NOT_FOUND,
                            message: format!("no document {name:?}: {e}"),
                        })?;
                        continue;
                    }
                };
                // Opened again while open: one more read, one more snapshot.
                if let Some(editor) = subs.get(&doc) {
                    match editor.reopen(encode_snapshot) {
                        Ok(snapshot) => critical_bytes(snapshot)?,
                        Err(e) => critical(no_snapshot(doc, &e))?,
                    }
                    continue;
                }
                // Order matters (see "Subscribe before snapshot" in the
                // module docs): the gated stream exists before the
                // registry can route an event to it, and both before the
                // snapshot is taken.
                shared.queue.open_stream(doc);
                hub.subscribe(doc, shared);
                match session.open_live(doc, encode_snapshot) {
                    Ok((editor, snapshot)) => {
                        critical_bytes(snapshot)?;
                        let (queued, dropped) = shared.queue.release_stream(doc);
                        hub.count_events(queued, dropped);
                        subs.insert(doc, editor);
                    }
                    Err(e) => {
                        hub.unsubscribe(doc, shared);
                        shared.queue.close_stream(doc);
                        critical(Frame::Error {
                            code: codes::REJECTED,
                            message: format!("cannot open {name:?}: {e}"),
                        })?;
                    }
                }
            }
            Frame::Unsubscribe { doc } => {
                let doc = DocId(doc);
                if subs.remove(&doc).is_some() {
                    hub.unsubscribe(doc, shared);
                    shared.queue.close_stream(doc);
                }
            }
            Frame::Edit { request, doc, op } => {
                let Some(editor) = subs.get(&DocId(doc)) else {
                    critical(Frame::EditRejected {
                        request,
                        message: "not subscribed to this document".into(),
                    })?;
                    continue;
                };
                // Positions are advisory: the live document clamps them.
                let committed = match op {
                    EditOp::Insert { pos, text } => editor.insert(pos as usize, &text),
                    EditOp::Delete { pos, len } => editor.delete(pos as usize, len as usize),
                };
                match committed {
                    // Ack first, and broadcast whatever became of the ack
                    // (see the module docs).
                    Ok((receipt, event)) => {
                        let acked = critical(Frame::EditOk {
                            request,
                            op: receipt.op.0,
                            commit_ts: receipt.commit_ts,
                        });
                        editor.publish(event);
                        acked?;
                    }
                    Err(e) => critical(Frame::EditRejected {
                        request,
                        message: e.to_string(),
                    })?,
                }
            }
            Frame::Awareness {
                doc,
                cursor,
                selection,
            } => {
                collab.presence_update(session.id(), |p| {
                    p.doc = Some(DocId(doc));
                    p.cursor = cursor.map(|c| c as usize);
                    p.selection = selection.map(|(a, b)| (a as usize, b as usize));
                });
            }
            Frame::PresenceQuery { doc } => {
                let entries = collab
                    .editors_on(DocId(doc))
                    .iter()
                    .map(WirePresence::from)
                    .collect();
                critical(Frame::Presence { doc, entries })?;
            }
            Frame::Ping { nonce } => critical(Frame::Pong { nonce })?,
            Frame::Resync { doc } => {
                let held = subs.contains_key(&DocId(doc));
                match held.then(|| repair(hub, DocId(doc), session.user())) {
                    Some(Ok(Some(snapshot))) => critical_bytes(snapshot)?,
                    Some(Err(why)) => critical(why)?,
                    _ => critical(Frame::Error {
                        code: codes::NOT_FOUND,
                        message: "not subscribed to this document".into(),
                    })?,
                }
            }
            Frame::Bye => return Ok(()),
            // Server-to-client frames arriving here are a violation.
            other => {
                return Err(NetError::Protocol(format!(
                    "client may not send frame 0x{:02x}",
                    other.tag()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: DocId = DocId(7);

    fn frame(b: u8) -> Bytes {
        Arc::from(vec![b])
    }

    /// A queue with `docs` subscribed and their streams released.
    fn queue(capacity: usize, docs: &[DocId]) -> OutQueue {
        let q = OutQueue::new(capacity);
        for &doc in docs {
            q.open_stream(doc);
            q.release_stream(doc);
        }
        q
    }

    fn drain(q: &OutQueue) -> Vec<Bytes> {
        let mut frames = Vec::new();
        assert!(q.wait(&mut frames));
        frames
    }

    #[test]
    fn events_past_capacity_are_dropped_counted_and_lose_the_stream() {
        let q = queue(2, &[DOC]);
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Queued);
        assert_eq!(q.push_event(DOC, &frame(2)), Offered::Queued);
        assert_eq!(q.push_event(DOC, &frame(3)), Offered::Dropped);
        assert_eq!(q.lagged(), 1);
        // Draining frees capacity, but the client has a gap: the stream
        // stays suppressed (and counts) until the writer recovers it.
        assert_eq!(drain(&q), [frame(1), frame(2)]);
        assert_eq!(q.push_event(DOC, &frame(4)), Offered::Dropped);
        assert_eq!(q.lagged(), 2);
        let mut lost = Vec::new();
        q.take_lost(&mut lost);
        assert_eq!(lost, [DOC]);
        assert_eq!(q.lagged(), 0);
        assert_eq!(q.push_event(DOC, &frame(5)), Offered::Queued);
        // An event of a document the connection does not subscribe to
        // goes nowhere.
        assert_eq!(q.push_event(DocId(8), &frame(6)), Offered::Parked);
        assert_eq!(drain(&q), [frame(5)]);
    }

    /// Regression: lag used to be one counter per connection that any
    /// document's recovery zeroed, so a client lost on two documents had
    /// its `lag_limit` accounting wiped by the first recovery.
    #[test]
    fn recovering_one_stream_keeps_the_lag_of_the_others() {
        let (left, right) = (DocId(1), DocId(2));
        let q = queue(1, &[left, right]);
        assert_eq!(q.push_event(left, &frame(0)), Offered::Queued);
        for _ in 0..3 {
            assert_eq!(q.push_event(left, &frame(1)), Offered::Dropped);
        }
        for _ in 0..5 {
            assert_eq!(q.push_event(right, &frame(2)), Offered::Dropped);
        }
        assert_eq!(q.lagged(), 8);
        // `right` unsubscribes and comes back while lost: its old lag
        // and its pending recovery go with the old stream.
        q.close_stream(right);
        assert_eq!(q.lagged(), 3);
        q.open_stream(right);
        q.release_stream(right);
        for _ in 0..5 {
            assert_eq!(q.push_event(right, &frame(2)), Offered::Dropped);
        }
        // The writer recovers `left` alone (`right` was lost after it
        // looked): only `left`'s lag is forgiven.
        let mut lost = Vec::new();
        {
            let mut s = q.state.lock();
            s.recover.retain(|d| *d == left);
        }
        q.take_lost(&mut lost);
        assert_eq!(lost, [left]);
        assert_eq!(q.lagged(), 5);
    }

    #[test]
    fn held_events_follow_the_snapshot_in_order() {
        let q = OutQueue::new(8);
        q.open_stream(DOC);
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Parked);
        assert_eq!(q.push_event(DOC, &frame(2)), Offered::Parked);
        q.push_critical(frame(0), Duration::from_millis(10))
            .unwrap();
        assert_eq!(q.release_stream(DOC), (2, 0));
        assert_eq!(q.push_event(DOC, &frame(3)), Offered::Queued);
        assert_eq!(drain(&q), [frame(0), frame(1), frame(2), frame(3)]);
    }

    #[test]
    fn push_critical_times_out_on_full_queue() {
        let q = queue(1, &[]);
        q.push_critical(frame(1), Duration::from_millis(10))
            .unwrap();
        match q.push_critical(frame(2), Duration::from_millis(10)) {
            Err(NetError::SlowConsumer) => {}
            other => panic!("expected SlowConsumer, got {other:?}"),
        }
    }

    #[test]
    fn kill_discards_queue_and_emits_final_frame() {
        let q = queue(8, &[DOC]);
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Queued);
        assert_eq!(q.push_event(DOC, &frame(2)), Offered::Queued);
        q.kill(Some(frame(9)));
        assert_eq!(q.push_event(DOC, &frame(3)), Offered::Parked);
        assert!(matches!(
            q.push_critical(frame(4), Duration::from_millis(5)),
            Err(NetError::Closed)
        ));
        assert_eq!(drain(&q), [frame(9)]);
        assert!(!q.wait(&mut Vec::new()));
    }

    #[test]
    fn wait_unblocks_on_concurrent_push() {
        let q = Arc::new(queue(4, &[DOC]));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || drain(&q2));
        // Whether the push lands before or after the writer parks, the
        // writer must come back with it.
        assert_eq!(q.push_event(DOC, &frame(7)), Offered::Queued);
        assert_eq!(h.join().unwrap(), [frame(7)]);
    }
}
