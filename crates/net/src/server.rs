//! The TCP collaboration server.
//!
//! Multiplexes many client connections over one [`CollabServer`]. A
//! connection is a core with no I/O — a [`Conn`] on the shared [`Hub`]:
//! its handshake state, a server-side [`EditorSession`], its
//! subscriptions and a **bounded** outbound queue; [`Conn::on_frame`]
//! queues the replies to a frame, [`Conn::drain`] hands out what is
//! queued — and a shell of two threads whatever it subscribes to: a
//! reader blocked on the socket that feeds `on_frame` and writes its
//! replies, and a writer for the rest. A subscription borrows the
//! collab server's live copy of its document ([`tendax_collab::live`]).
//! No thread stands between a commit and the subscribers' queues: the
//! live document's outbox publishes a document's events in commit order,
//! and a publish hook on the [`LanBus`] runs on the publishing thread,
//! encodes the `Event` frame once and pushes the shared bytes onto each
//! subscriber's queue. So every stream carries its document's events in
//! commit order.
//!
//! [`LanBus`]: tendax_collab::LanBus
//!
//! ## Ack first
//!
//! An `Edit`'s [`Ticket`](tendax_collab::Ticket) is made ready once its
//! `EditOk` is queued, so on the typist's connection the `EditOk` comes
//! before its echo. The typist's reader publishes — the [`Broadcast`] —
//! right after `on_frame`, then writes the reply and the echo in one
//! socket write, and only then the other subscribers whose write sides
//! its publication took: the acknowledgement waits for the fan-out's
//! queueing, never for another subscriber's socket. Another editor's
//! publication may carry the event sooner, to a connection other than the
//! typist's, but never before the `EditOk` is queued. The event goes out
//! even if the reply cannot be written — the edit is committed, and the
//! other subscribers are owed it.
//!
//! ## One step joins a stream
//!
//! A snapshot or a delta and the event stream behind it are started in
//! one step, under the document's lock ([`Conn::queue_snapshot`]): the
//! stream is entered in the registry if it is new, or made whole again if
//! it was lost, and the frame is queued — first `Subscribe`, repeated
//! `Subscribe`, `Resync` and the recovery of a lost stream alike. A
//! `Snapshot{synced_ts = F}` holds every commit on its document at or
//! below `F` (the live document's frontier), and a `Delta{from,
//! synced_ts = F}` every such commit above `from`; every commit of the
//! document appends its event to the document's tail and outbox under
//! that lock, and the outbox publishes them in commit order after it is
//! let go, so no event above `F` is queued ahead of the frame and none
//! goes missing behind it (events at or below `F` are dropped client-side
//! by the ts gate). Lock order: document, hub registry, connection queue;
//! a publisher holds neither a document's lock nor its outbox's, and takes
//! the registry, then queues.
//!
//! ## A re-open is a delta
//!
//! A client that closed a document keeps its mirror, and its next
//! `Subscribe` of the name offers the mirror's `(doc, from)`. If the name
//! still resolves to `doc` and the live document's tail holds every
//! commit above `from` ([`tendax_collab::live`]), the answer is a `Delta`
//! of those commits' events; else a snapshot, as for a first open. The
//! recovery of a lost stream takes the same step, its `from` the newest
//! commit queued on the stream — what the client's mirror will hold once
//! it has read the queue. A `Resync` is answered by a snapshot: a mirror
//! that asks for one is broken.
//!
//! ## Slow-consumer policy
//!
//! One thread writes at a time and hands out the whole queue: the reader,
//! for the frame it serves; a publisher, for the connections whose write
//! sides its offers found free; else the writer. Only the writer waits on
//! the socket: the reader and a publisher send without waiting, and what
//! the socket does not take waits in the connection's write buffer for the
//! writer, ahead of any later frame. A publisher runs no recovery: a lost
//! stream is the writer's. `Event` frames are offered without waiting:
//! when the queue is full the frame is dropped and counted as lag, and
//! that document's stream is *lost* — further events of it are suppressed
//! (each counted as lag) until a snapshot or a delta makes it whole: the
//! recovery `drain` queues once it has emptied the queue, or the answer to
//! a `Resync` or `Subscribe` that came first. That forgives that stream's
//! lag and only that stream's. Neither a recovery nor a `Resync` is a
//! read by the user: only `Subscribe` records one. Replies are queued even
//! past the capacity, and the reader then waits up to
//! `critical_send_timeout` for room before the next request. A client is cut — queue cleared, a final
//! `Error{SLOW_CONSUMER}`, socket closed — when its lag passes
//! `lag_limit` (by the publisher whose offer passed it), when no room
//! comes in time, or when a socket write times out; closed once, and
//! counted once, whoever finds it. Bound, count, evict, plus the resync
//! step a remote mirror needs: one slow editor can never wedge the server
//! or the other editors.
//!
//! ## Error isolation
//!
//! A malformed frame, unknown tag, or protocol violation terminates
//! *that* connection with a typed error frame; every other connection
//! and the accept loop are untouched.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use tendax_collab::{CollabServer, DocEvent, EditorSession, Join, LiveEditor, Platform, Ticket};
use tendax_storage::Ts;
use tendax_text::{DocId, Result as TextResult, TextError, UserId};

use crate::error::{codes, NetError, Result};
use crate::protocol::{encode_event, encode_join, EditOp, Frame, WirePresence, PROTOCOL_VERSION};
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
    /// How long the reader waits for room in a queue its replies
    /// overfilled, and a socket write for the peer to read.
    pub critical_send_timeout: Duration,
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
    /// Frames put on sockets, by whichever thread wrote them.
    pub frames_written: u64,
    /// Socket writes those frames travelled in: a write takes the whole
    /// queue, so an edit's `EditOk` and the typist's own echo share one,
    /// and each other subscriber's copy of the event is one more, made by
    /// the publisher.
    pub socket_writes: u64,
    /// Times a parked writer thread was woken for work: bytes a write
    /// without waiting left unsent, frames queued while another thread
    /// owned the write side, a lost stream to recover. (A close wakes it
    /// uncounted.)
    pub writer_wakes: u64,
    /// Frames whose answer the connection's reader left to its writer
    /// thread: another thread owned the write side, or bytes it left
    /// unsent waited for the writer, when the frame came in.
    pub answers_handed_off: u64,
    /// Documents with a live copy right now (a gauge): the subscribed.
    pub live_documents: u64,
    /// Snapshots encoded from a live copy: subscribe, resync, recovery.
    pub snapshots_served: u64,
    /// Deltas served from a live document's tail instead: a re-open of a
    /// kept mirror, a recovery.
    pub deltas_served: u64,
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
    writer_wakes: AtomicU64,
    answers_handed_off: AtomicU64,
}

fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}

/// One encoded frame, shared by every queue it sits in.
pub type Bytes = Arc<[u8]>;

/// Where a connection stands after [`Conn::on_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Ready,
    /// Replies overfilled the queue: wait for room before the next frame
    /// (up to `critical_send_timeout`, else cut for `SLOW_CONSUMER`).
    Full,
    /// Over (`Bye`, an error, a cut); the queue ends with its last frame.
    Closed,
}

/// The event stream of one subscribed document on one connection.
#[derive(Debug, Default)]
struct Stream {
    /// A frame was dropped: nothing more of this document is sent until
    /// a snapshot or a delta makes the stream whole again.
    lost: bool,
    /// The newest commit queued: the frontier of a mirror that has read
    /// the queue.
    frontier: Ts,
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
    /// Signalled when space frees up (a reader waiting for room).
    space: Condvar,
    capacity: usize,
    lag_limit: u64,
    stats: Arc<StatCells>,
    /// The socket's write side, attached by the shell; a connection driven
    /// without a socket has none, and its writer hands out everything.
    side: OnceLock<Mutex<WriteSide>>,
}

#[derive(Debug, Default)]
struct QueueState {
    frames: VecDeque<Bytes>,
    /// No more pushes; the writer drains what remains, then closes.
    closing: bool,
    streams: HashMap<DocId, Stream>,
    /// Outstanding lag summed over the streams.
    lagged: u64,
    /// A thread owns the write side: the writer, the reader serving, or a
    /// publisher.
    writing: bool,
    /// A write that did not wait left bytes in the write buffer: only the
    /// writer writes them, before any later frame.
    unsent: bool,
    /// The writer is (about to be) asleep on `data`: only then is a
    /// notification — a system call — worth making.
    writer_parked: bool,
    /// Readers asleep on `space`.
    space_waiters: usize,
}

impl QueueState {
    /// Frames to hand out, a close to act on, or streams to recover.
    fn has_work(&self) -> bool {
        !self.frames.is_empty()
            || self.closing
            || self.unsent
            || self.streams.values().any(|st| st.lost)
    }

    /// Own the write side if it is free: nobody owns it and no bytes wait
    /// for the writer.
    fn own_free(&mut self) -> bool {
        let free = !self.writing && !self.unsent;
        self.writing |= free;
        free
    }
}

impl OutQueue {
    fn new(capacity: usize, lag_limit: u64, stats: Arc<StatCells>) -> Self {
        OutQueue {
            state: Mutex::new(QueueState::default()),
            data: Condvar::new(),
            space: Condvar::new(),
            capacity,
            lag_limit,
            stats,
            side: OnceLock::new(),
        }
    }

    fn wake_writer(&self, s: &mut QueueState) {
        if !s.writing && s.has_work() && std::mem::take(&mut s.writer_parked) {
            bump(&self.stats.writer_wakes);
            self.data.notify_one();
        }
    }

    /// The write side the shell attached.
    fn side(&self) -> &Mutex<WriteSide> {
        self.side.get().expect("the shell attaches the socket")
    }

    /// Queue `snapshot` (or a delta), the answer to `request` (0:
    /// unasked), with frontier `at`, and make `doc`'s stream whole behind
    /// it, its lag forgiven and no other stream's: entered if `new`, else
    /// only if it stands — a stream closed by `Unsubscribe` is never
    /// reopened — and, for an unasked snapshot, only if it is still lost.
    /// `false` if nothing was queued.
    fn queue_snapshot(&self, doc: DocId, request: u64, new: bool, at: Ts, snapshot: Bytes) -> bool {
        let mut s = self.state.lock();
        let s = &mut *s;
        if s.closing {
            return false;
        }
        let stream = if new {
            s.streams.entry(doc).or_default()
        } else {
            match s.streams.get_mut(&doc) {
                Some(stream) if request != 0 || stream.lost => stream,
                _ => return false,
            }
        };
        stream.lost = false;
        stream.frontier = stream.frontier.max(at);
        s.lagged -= std::mem::take(&mut stream.lagged);
        s.frames.push_back(snapshot);
        self.wake_writer(s);
        true
    }

    /// End a subscription's event stream, forgetting its lag.
    fn close_stream(&self, doc: DocId) {
        let mut s = self.state.lock();
        if let Some(stream) = s.streams.remove(&doc) {
            s.lagged -= stream.lagged;
        }
    }

    /// The documents whose streams are lost, in order, each with its
    /// frontier: each is owed a recovery.
    fn lost(&self) -> Vec<(DocId, Ts)> {
        let s = self.state.lock();
        let mut docs: Vec<(DocId, Ts)> = s
            .streams
            .iter()
            .filter_map(|(doc, st)| st.lost.then_some((*doc, st.frontier)))
            .collect();
        docs.sort_unstable();
        docs
    }

    /// Offer the event of `doc`'s commit at `ts` without waiting. Full
    /// queue = drop, lag, and the stream is lost until a snapshot or a
    /// delta makes it whole; lag past the limit cuts the connection, here
    /// and now. `true` if the event was queued and the caller now owns the
    /// free write side of a socket: it is the caller's to write
    /// ([`OutQueue::write_taken`]), and no thread is woken.
    fn queue_event(&self, doc: DocId, ts: Ts, frame: &Bytes) -> bool {
        let mut s = self.state.lock();
        let s = &mut *s;
        if s.closing {
            return false;
        }
        let Some(stream) = s.streams.get_mut(&doc) else {
            return false;
        };
        if !stream.lost && s.frames.len() < self.capacity {
            stream.frontier = stream.frontier.max(ts);
            s.frames.push_back(Arc::clone(frame));
            bump(&self.stats.events_forwarded);
            if self.side.get().is_some() && s.own_free() {
                return true;
            }
            self.wake_writer(s);
            return false;
        }
        stream.lost = true;
        stream.lagged += 1;
        s.lagged += 1;
        bump(&self.stats.frames_dropped);
        self.wake_writer(s);
        if s.lagged > self.lag_limit {
            self.cut_locked(s, &NetError::SlowConsumer);
        }
        false
    }

    /// Queue a reply frame, even past the capacity (see [`Step::Full`]).
    fn push_reply(&self, frame: Bytes) {
        let mut s = self.state.lock();
        if !s.closing {
            s.frames.push_back(frame);
            self.wake_writer(&mut s);
        }
    }

    fn step(&self) -> Step {
        let s = self.state.lock();
        match (s.closing, s.frames.len() > self.capacity) {
            (true, _) => Step::Closed,
            (false, true) => Step::Full,
            (false, false) => Step::Ready,
        }
    }

    /// Shell side: wait up to `timeout` for the queue to be back within
    /// its capacity (or closed); `false` if it is not.
    fn wait_room(&self, timeout: Duration) -> bool {
        let mut s = self.state.lock();
        while !s.closing && s.frames.len() > self.capacity {
            s.space_waiters += 1;
            let timed_out = self.space.wait_for(&mut s, timeout).timed_out();
            s.space_waiters -= 1;
            if timed_out {
                return false;
            }
        }
        true
    }

    /// Discard everything queued, queue one final frame, and close —
    /// unless closed already.
    fn kill(&self, last_frame: Option<Bytes>) {
        self.close_locked(&mut self.state.lock(), last_frame);
    }

    fn close_locked(&self, s: &mut QueueState, last_frame: Option<Bytes>) -> bool {
        if s.closing {
            return false;
        }
        s.frames.clear();
        s.frames.extend(last_frame);
        s.closing = true;
        self.data.notify_all();
        self.space.notify_all();
        true
    }

    /// Close the connection for `why`: its error frame last, counted
    /// under its kind — by the one close that ends the connection.
    fn cut(&self, why: &NetError) {
        self.cut_locked(&mut self.state.lock(), why);
    }

    fn cut_locked(&self, s: &mut QueueState, why: &NetError) {
        let st = &self.stats;
        let (code, counter) = match why {
            NetError::Io(_) | NetError::Closed => {
                self.close_locked(s, None);
                return;
            }
            NetError::Auth(_) => (codes::AUTH, &st.auth_failures),
            NetError::SlowConsumer => (codes::SLOW_CONSUMER, &st.slow_disconnects),
            _ => (codes::PROTOCOL, &st.protocol_errors),
        };
        let message = why.to_string();
        if self.close_locked(s, Some(Frame::Error { code, message }.encode().into())) {
            bump(counter);
        }
    }

    /// Own the write side: the writer blocks until there is work and
    /// nobody owns it; the reader does not wait, and fails unless it is
    /// free.
    fn own(&self, writer: bool) -> bool {
        let mut s = self.state.lock();
        if !writer {
            return s.own_free();
        }
        while s.writing || !s.has_work() {
            s.writer_parked = true;
            self.data.wait(&mut s);
            s.writer_parked = false;
        }
        s.writing = true;
        true
    }

    /// Let go of the write side, `unsent` bytes left in its buffer or
    /// none, waking the writer for what is left.
    fn release(&self, unsent: bool) {
        let mut s = self.state.lock();
        s.writing = false;
        s.unsent = unsent;
        self.wake_writer(&mut s);
    }

    /// A publisher's write, the write side taken by
    /// [`OutQueue::queue_event`]: send the queued frames without waiting,
    /// leave what the socket does not take to the writer, and let go. No
    /// recovery: a lost stream wakes the writer as the side is let go.
    fn write_taken(&self) {
        let mut side = self.side().lock();
        self.take(&mut side.frames);
        let written = side.write(&self.stats, false);
        side.frames.clear();
        if let Err(e) = written {
            self.write_failed(e);
        }
        let unsent = !side.unsent.is_empty();
        drop(side); // Before `release` can wake the writer for it.
        self.release(unsent);
    }

    /// A socket write failed: a timeout is the slow-consumer policy's last
    /// line — the peer stopped reading long enough to fill the kernel
    /// buffer — and any other error closes the connection.
    fn write_failed(&self, e: std::io::Error) {
        self.cut(&match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::SlowConsumer,
            _ => e.into(),
        });
    }

    /// Move every queued frame into `frames`; `false` once closed.
    fn take(&self, frames: &mut Vec<Bytes>) -> bool {
        let mut s = self.state.lock();
        frames.extend(s.frames.drain(..));
        if s.space_waiters > 0 {
            self.space.notify_all();
        }
        !s.closing
    }
}

/// What every connection and the publish hook share: the collab server,
/// the counters, and which connections an event of a document goes to.
#[derive(Debug)]
pub struct Hub {
    collab: CollabServer,
    config: NetConfig,
    stats: Arc<StatCells>,
    subscribers: RwLock<HashMap<DocId, Vec<Arc<OutQueue>>>>,
}

impl Hub {
    /// A hub serving `collab`, its publish hook registered: every commit's
    /// event goes to the subscribers' queues on the publishing thread.
    pub fn new(collab: CollabServer, config: NetConfig) -> Arc<Hub> {
        let hub = Arc::new(Hub {
            collab,
            config,
            stats: Arc::default(),
            subscribers: RwLock::new(HashMap::new()),
        });
        // Weak: the bus must not keep the hub alive — once it is gone
        // the hook deregisters itself by returning false.
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
        hub
    }

    /// The publish hook's body, on the publishing thread: encode the
    /// `Event` frame once, offer the shared bytes to every subscriber, and
    /// write each connection whose write side the offer took — once the
    /// registry lock is let go, and, on a reader that publishes, once its
    /// own reply is written ([`Taken::hold`]). Publishers of any documents
    /// share the registry lock; it is only taken exclusively to subscribe
    /// or unsubscribe.
    fn fan_out(&self, ev: &DocEvent) {
        TAKEN.with(|taken| {
            let mut taken = taken.borrow_mut();
            let subscribers = self.subscribers.read();
            if let Some(queues) = subscribers.get(&ev.doc) {
                let frame: Bytes = encode_event(ev).into();
                for queue in queues {
                    if queue.queue_event(ev.doc, ev.commit_ts, &frame) {
                        taken.queues.push(Arc::clone(queue));
                    }
                }
            }
            drop(subscribers);
            if !taken.held {
                taken.write();
            }
        });
    }

    fn subscribe(&self, doc: DocId, queue: &Arc<OutQueue>) {
        let mut subscribers = self.subscribers.write();
        subscribers.entry(doc).or_default().push(Arc::clone(queue));
    }

    fn unsubscribe(&self, doc: DocId, queue: &Arc<OutQueue>) {
        let mut subscribers = self.subscribers.write();
        if let Some(queues) = subscribers.get_mut(&doc) {
            queues.retain(|q| !Arc::ptr_eq(q, queue));
            if queues.is_empty() {
                subscribers.remove(&doc);
            }
        }
    }

    /// Drop every subscription of a connection that is going away.
    fn disconnect(&self, queue: &Arc<OutQueue>) {
        self.subscribers.write().retain(|_, queues| {
            queues.retain(|q| !Arc::ptr_eq(q, queue));
            !queues.is_empty()
        });
    }

    /// The counters of this hub's connections.
    pub fn stats(&self) -> NetServerStats {
        let cell = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let s = &self.stats;
        let live = self.collab.live().stats();
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
            writer_wakes: cell(&s.writer_wakes),
            answers_handed_off: cell(&s.answers_handed_off),
            live_documents: live.documents as u64,
            snapshots_served: live.snapshots,
            deltas_served: live.deltas,
            live_loads: live.loads,
        }
    }
}

/// A committed edit's ticket, ready, handed back by [`Conn::on_frame`] so
/// the shell can write the reply with the echo: published by `publish` or
/// on drop.
pub type Broadcast = Ticket;

/// The write sides of other connections that publications on one thread
/// took, not yet written.
#[derive(Default)]
struct Taken {
    /// A reader is publishing: the writes wait for its own (`Taken::hold`).
    held: bool,
    queues: Vec<Arc<OutQueue>>,
}

thread_local! {
    static TAKEN: RefCell<Taken> = RefCell::default();
}

impl Taken {
    /// Hold back the writes of the write sides publications on this thread
    /// take until the guard drops.
    fn hold() -> HeldWrites {
        TAKEN.with(|taken| taken.borrow_mut().held = true);
        HeldWrites
    }

    fn write(&mut self) {
        for queue in self.queues.drain(..) {
            queue.write_taken();
        }
    }
}

/// See [`Taken::hold`]: dropped, it writes what was held back.
struct HeldWrites;

impl Drop for HeldWrites {
    fn drop(&mut self) {
        TAKEN.with(|taken| {
            let mut taken = taken.borrow_mut();
            taken.held = false;
            taken.write();
        });
    }
}

type Subs = HashMap<DocId, LiveEditor>;

/// One connection's protocol state, with no socket: feed it frames with
/// [`Conn::on_frame`], take its output with [`Conn::drain`].
#[derive(Debug)]
pub struct Conn {
    queue: Arc<OutQueue>,
    /// Who the connection authenticated as (set by the handshake, before
    /// any subscription): recovery snapshots are checked against them.
    user: OnceLock<UserId>,
    /// The session and its hold on each subscribed document's live copy —
    /// `None` before the handshake, and again once the queue is closed.
    /// Only the reader side takes this lock; `drain` never does.
    open: Mutex<Option<(EditorSession, Subs)>>,
}

impl Conn {
    pub fn new(hub: &Hub) -> Conn {
        let (config, stats) = (&hub.config, Arc::clone(&hub.stats));
        let queue = OutQueue::new(config.outbound_capacity, config.lag_limit, stats);
        Conn {
            queue: Arc::new(queue),
            user: OnceLock::new(),
            open: Mutex::new(None),
        }
    }

    /// Handle one frame from the client: answer it into the outbound
    /// queue, and say whether the next may be read. An edit's ticket comes
    /// back with the step, ready, to publish once the reply is written.
    pub fn on_frame(&self, hub: &Hub, frame: Frame) -> (Step, Broadcast) {
        let mut open = self.open.lock();
        let mut out = Broadcast::default();
        if self.queue.step() != Step::Closed {
            let served = match &mut *open {
                None => self.hello(hub, frame).map(|o| *open = Some(o)),
                Some((session, subs)) => self.serve(hub, session, subs, frame).map(|b| out = b),
            };
            if let Err(why) = served {
                self.queue.cut(&why);
            }
        }
        let step = self.queue.step();
        if step == Step::Closed {
            hub.disconnect(&self.queue);
            *open = None;
        }
        (step, out)
    }

    /// The stream ended, or failed, for `why`: close the connection.
    fn close(&self, hub: &Hub, why: &NetError) {
        self.queue.cut(why);
        hub.disconnect(&self.queue);
        *self.open.lock() = None;
    }

    /// Hand out every queued frame and, the queue being empty, the
    /// recovery of each lost stream — a delta from its frontier, or a
    /// snapshot — with whatever was queued behind it. `false` once the
    /// connection is closed: `out` then ends with its last frame.
    pub fn drain(&self, hub: &Hub, out: &mut Vec<Bytes>) -> bool {
        if !self.queue.take(out) {
            return false;
        }
        let lost = self.queue.lost();
        if lost.is_empty() {
            return true;
        }
        for (doc, frontier) in lost {
            // The client cannot be made consistent: say why and close.
            if let Err(e) = self.snapshot_again(hub, doc, 0, Some(frontier)) {
                self.queue.kill(Some(no_snapshot(doc, &e).encode().into()));
            }
        }
        self.queue.take(out)
    }

    /// The one way a snapshot or a delta reaches a connection, run by the
    /// live document under its lock (see "One step joins a stream" in the
    /// module docs): encode `at` — a delta if it offers one — as the answer
    /// to `request` (0: unasked), enter the document's stream in the
    /// registry if `new`, and queue the frame with the stream whole behind
    /// it. `false` if nothing was queued: the connection or the stream was
    /// closed, or the stream made whole, meanwhile.
    fn queue_snapshot(&self, hub: &Hub, at: &Join<'_>, request: u64, new: bool) -> bool {
        let frame = encode_join(at, request).into();
        if new {
            hub.subscribe(at.doc(), &self.queue);
        }
        let frontier = at.synced_ts();
        self.queue
            .queue_snapshot(at.doc(), request, new, frontier, frame)
    }

    /// [`Conn::queue_snapshot`] onto the stream of a subscribed `doc`, as
    /// a transport repair — a delta from `from` if given and the document
    /// can, else a snapshot: checks `Read` and records nothing.
    /// `Ok(false)` if nothing was queued.
    fn snapshot_again(
        &self,
        hub: &Hub,
        doc: DocId,
        request: u64,
        from: Option<Ts>,
    ) -> TextResult<bool> {
        let user = *self.user.get().expect("subscriptions follow the handshake");
        let queue = |at: &Join<'_>| self.queue_snapshot(hub, at, request, false);
        Ok(hub.collab.live().join(doc, user, from, queue)? == Some(true))
    }

    fn reply(&self, frame: Frame) {
        self.queue.push_reply(frame.encode().into());
    }

    /// Answer a request for a snapshot of the subscribed `doc` with what
    /// became of it: queued, or the frame that says why not.
    fn answer_snapshot(&self, doc: DocId, queued: TextResult<bool>) {
        match queued {
            Ok(true) => {}
            Ok(false) => self.reply(not_subscribed()),
            Err(e) => self.reply(no_snapshot(doc, &e)),
        }
    }

    fn hello(&self, hub: &Hub, frame: Frame) -> Result<(EditorSession, Subs)> {
        let Frame::Hello {
            version,
            user,
            platform,
            token,
        } = frame
        else {
            return Err(NetError::Protocol(format!(
                "expected Hello, got frame 0x{:02x}",
                frame.tag()
            )));
        };
        if version != PROTOCOL_VERSION {
            return Err(NetError::Auth(format!(
                "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
            )));
        }
        if let Some(required) = &hub.config.token {
            if &token != required {
                return Err(NetError::Auth("bad token".into()));
            }
        }
        let session = hub
            .collab
            .connect(&user, platform_from_wire(&platform))
            .map_err(|e| NetError::Auth(format!("unknown user {user:?}: {e}")))?;
        self.user
            .set(session.user())
            .expect("one handshake per connection");
        self.reply(Frame::Welcome {
            session: session.id().0,
        });
        Ok((session, HashMap::new()))
    }

    fn serve(
        &self,
        hub: &Hub,
        session: &EditorSession,
        subs: &mut Subs,
        frame: Frame,
    ) -> Result<Broadcast> {
        let collab = &hub.collab;
        match frame {
            Frame::Subscribe {
                request,
                name,
                resume,
            } => {
                let doc = match collab.textdb().document_by_name(&name) {
                    Ok(doc) => doc,
                    Err(e) => {
                        self.reply(Frame::Error {
                            code: codes::NOT_FOUND,
                            message: format!("no document {name:?}: {e}"),
                        });
                        return Ok(Broadcast::default());
                    }
                };
                // A kept mirror is resumed only if it is of this document.
                let from = resume.filter(|&(of, _)| of == doc.0).map(|(_, from)| from);
                // Opened again while open: one more read, one more answer.
                if let Some(editor) = subs.get(&doc) {
                    let queue = |at: &Join<'_>| self.queue_snapshot(hub, at, request, false);
                    self.answer_snapshot(doc, editor.reopen(from, queue));
                    return Ok(Broadcast::default());
                }
                // Nothing is registered until the answer is queued.
                let queue = |at: &Join<'_>| self.queue_snapshot(hub, at, request, true);
                match session.open_live(doc, from, queue) {
                    Ok((editor, _)) => {
                        subs.insert(doc, editor);
                    }
                    Err(e) => self.reply(Frame::Error {
                        code: codes::REJECTED,
                        message: format!("cannot open {name:?}: {e}"),
                    }),
                }
            }
            Frame::Unsubscribe { doc } => {
                let doc = DocId(doc);
                // The stream ends before the live copy is let go: a stream
                // that stands always has a copy to be recovered from.
                if subs.contains_key(&doc) {
                    hub.unsubscribe(doc, &self.queue);
                    self.queue.close_stream(doc);
                    subs.remove(&doc);
                }
            }
            Frame::Edit { request, doc, op } => {
                let Some(editor) = subs.get(&DocId(doc)) else {
                    self.reply(Frame::EditRejected {
                        request,
                        message: "not subscribed to this document".into(),
                    });
                    return Ok(Broadcast::default());
                };
                // Positions are advisory: the live document clamps them.
                let committed = match op {
                    EditOp::Insert { pos, text } => editor.insert(pos as usize, &text),
                    EditOp::Delete { pos, len } => editor.delete(pos as usize, len as usize),
                };
                match committed {
                    // Ack first (see the module docs).
                    Ok((receipt, ticket)) => {
                        self.reply(Frame::EditOk {
                            request,
                            op: receipt.op.0,
                            commit_ts: receipt.commit_ts,
                        });
                        ticket.ready();
                        return Ok(ticket);
                    }
                    Err(e) => self.reply(Frame::EditRejected {
                        request,
                        message: e.to_string(),
                    }),
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
                self.reply(Frame::Presence { doc, entries });
            }
            Frame::Ping { nonce } => self.reply(Frame::Pong { nonce }),
            Frame::Resync { request, doc } => {
                let doc = DocId(doc);
                match subs.contains_key(&doc) {
                    true => {
                        let queued = self.snapshot_again(hub, doc, request, None);
                        self.answer_snapshot(doc, queued);
                    }
                    false => self.reply(not_subscribed()),
                }
            }
            Frame::Bye => return Err(NetError::Closed),
            // Server-to-client frames arriving here are a violation.
            other => {
                return Err(NetError::Protocol(format!(
                    "client may not send frame 0x{:02x}",
                    other.tag()
                )))
            }
        }
        Ok(Broadcast::default())
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

/// The `Error{NOT_FOUND}` that answers a request about a document the
/// connection does not subscribe to.
fn not_subscribed() -> Frame {
    Frame::Error {
        code: codes::NOT_FOUND,
        message: "not subscribed to this document".into(),
    }
}

/// The live connections and their sockets, for shutdown.
type Conns = Mutex<Vec<(Arc<Conn>, TcpStream)>>;

/// A running TCP server. Dropping it shuts everything down.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    hub: Arc<Hub>,
    conns: Arc<Conns>,
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
        let hub = Hub::new(collab, config);
        let conns: Arc<Conns> = Arc::default();

        let accept = {
            let (shutdown, hub, conns) =
                (Arc::clone(&shutdown), Arc::clone(&hub), Arc::clone(&conns));
            let live = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("tendax-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        bump(&hub.stats.accepted);
                        if live.load(Ordering::Acquire) >= hub.config.max_connections {
                            bump(&hub.stats.capacity_rejects);
                            reject_at_capacity(stream, hub.config.max_connections);
                            continue;
                        }
                        // Reap finished connections so the list does not
                        // grow with server lifetime.
                        conns.lock().retain(|(c, _)| c.queue.step() != Step::Closed);
                        let (hub, conns) = (Arc::clone(&hub), Arc::clone(&conns));
                        live.fetch_add(1, Ordering::AcqRel);
                        let guard = LiveGuard(Arc::clone(&live));
                        let spawned = std::thread::Builder::new()
                            .name("tendax-net-conn".into())
                            .spawn(move || {
                                let _guard = guard;
                                handle_connection(stream, hub, &conns);
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
            conns,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> NetServerStats {
        self.hub.stats()
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
        for (conn, stream) in self.conns.lock().drain(..) {
            conn.queue.kill(None);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read one frame, blocking as long as the socket's read timeout allows.
fn read_frame(mut stream: &TcpStream, buf: &mut FrameBuffer, scratch: &mut [u8]) -> Result<Frame> {
    loop {
        if let Some((tag, payload)) = buf.next_frame()? {
            return Frame::decode(tag, payload);
        }
        match stream.read(scratch)? {
            0 => return Err(NetError::Closed),
            n => buf.extend(&scratch[..n]),
        }
    }
}

/// Turn away a connection at the capacity limit: best-effort read of
/// the client's `Hello` (so closing the socket does not RST the goodbye
/// frame out of the peer's receive buffer), one typed `Error` frame,
/// close. Runs inline in the accept thread with short timeouts — no
/// per-connection threads or sessions are ever created for a rejected
/// client.
fn reject_at_capacity(stream: TcpStream, limit: usize) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = read_frame(&stream, &mut FrameBuffer::default(), &mut [0u8; 4096]);
    let _ = (&stream).write_all(
        &Frame::Error {
            code: codes::CAPACITY,
            message: NetError::AtCapacity { limit }.to_string(),
        }
        .encode(),
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The shell of one connection: this thread reads, feeds the core and
/// writes the replies while the writer is idle; a second one writes the
/// rest.
fn handle_connection(stream: TcpStream, hub: Arc<Hub>, conns: &Conns) {
    let _ = stream.set_nodelay(true);
    let (Ok(listed), Ok(out)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let _ = out.set_write_timeout(Some(hub.config.critical_send_timeout));
    let conn = Arc::new(Conn::new(&hub));
    let side = WriteSide {
        out,
        frames: Vec::new(),
        buf: Vec::new(),
        unsent: Vec::new(),
    };
    let _ = conn.queue.side.set(Mutex::new(side));
    conns.lock().push((Arc::clone(&conn), listed));

    let writer = {
        let (hub, conn) = (Arc::clone(&hub), Arc::clone(&conn));
        std::thread::Builder::new()
            .name("tendax-net-writer".into())
            .spawn(move || writer_loop(&hub, &conn))
            .expect("spawn writer thread")
    };

    let mut buf = FrameBuffer::default();
    let mut scratch = vec![0u8; 64 * 1024];
    let why = loop {
        match read_frame(&stream, &mut buf, &mut scratch) {
            Ok(frame) => match answer(&hub, &conn, frame) {
                Step::Ready => {}
                Step::Full if conn.queue.wait_room(hub.config.critical_send_timeout) => {}
                Step::Full => break NetError::SlowConsumer,
                Step::Closed => break NetError::Closed,
            },
            Err(why) => break why,
        }
    };
    conn.close(&hub, &why);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Serve one frame and publish what it committed; unless the write side
/// is owned (counted in `answers_handed_off`), write what `drain` hands
/// out (an `EditOk` and its echo) in one write; then write the other
/// connections the publication took.
fn answer(hub: &Hub, conn: &Conn, frame: Frame) -> Step {
    let owner = conn.queue.own(false);
    if !owner {
        bump(&conn.queue.stats.answers_handed_off);
    }
    let (step, broadcast) = conn.on_frame(hub, frame);
    let others = Taken::hold();
    broadcast.publish();
    if owner {
        let mut side = conn.queue.side().lock();
        side.flush(hub, conn, false);
        let unsent = !side.unsent.is_empty();
        drop(side); // Before `release` can wake the writer for it.
        conn.queue.release(unsent);
    }
    drop(others);
    step
}

/// Frames up to this many bytes share a socket write with their
/// neighbours in the queue; a larger one (a snapshot) goes by itself
/// rather than through a copy.
const COALESCE_BYTES: usize = 64 * 1024;

/// The connection's writer: it writes whatever is queued or left unsent
/// while nobody else does, waiting on the socket as long as its write
/// timeout allows, then shuts the socket down once the connection is
/// closed, which is what wakes a reader blocked on it.
fn writer_loop(hub: &Hub, conn: &Conn) {
    let side = conn.queue.side();
    loop {
        conn.queue.own(true);
        if !side.lock().flush(hub, conn, true) {
            break;
        }
        conn.queue.release(false);
    }
    let _ = side.lock().out.shutdown(std::net::Shutdown::Both);
}

/// A connection's socket and what is being written to it; used by
/// whichever thread owns the write side.
#[derive(Debug)]
struct WriteSide {
    out: TcpStream,
    /// The frames being written.
    frames: Vec<Bytes>,
    /// The one buffer they are coalesced in.
    buf: Vec<u8>,
    /// What a write that did not wait left behind (see
    /// `QueueState::unsent`).
    unsent: Vec<u8>,
}

impl WriteSide {
    /// Write what `drain` hands out — waiting on the socket, or leaving
    /// what it does not take unsent; `false` once the connection is over.
    fn flush(&mut self, hub: &Hub, conn: &Conn, wait: bool) -> bool {
        let open = conn.drain(hub, &mut self.frames);
        let written = self.write(&hub.stats, wait);
        self.frames.clear();
        let Err(e) = written else {
            return open;
        };
        conn.queue.write_failed(e);
        let _ = self.out.shutdown(std::net::Shutdown::Both);
        false
    }

    /// Write what was left unsent, then the frames, coalescing those that
    /// fit into the buffer. Without `wait`, once the socket takes less
    /// than a whole write the rest of it and every later frame go to
    /// `unsent`.
    fn write(&mut self, stats: &StatCells, wait: bool) -> std::io::Result<()> {
        let WriteSide {
            out,
            frames,
            buf,
            unsent,
        } = self;
        stats
            .frames_written
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        if !unsent.is_empty() {
            debug_assert!(wait, "only the writer owns a side with bytes unsent");
            bump(&stats.socket_writes);
            out.write_all(unsent)?;
            unsent.clear();
        }
        let mut write = |bytes: &[u8]| {
            if !unsent.is_empty() {
                unsent.extend_from_slice(bytes);
                return Ok(());
            }
            bump(&stats.socket_writes);
            if wait {
                return out.write_all(bytes);
            }
            let sent = send_now(out, bytes)?;
            unsent.extend_from_slice(&bytes[sent..]);
            Ok(())
        };
        buf.clear();
        for frame in frames.iter() {
            if !buf.is_empty() && buf.len() + frame.len() > COALESCE_BYTES {
                write(buf)?;
                buf.clear();
            }
            if frame.len() > COALESCE_BYTES {
                write(frame)?;
            } else {
                buf.extend_from_slice(frame);
            }
        }
        if !buf.is_empty() {
            write(buf)?;
        }
        Ok(())
    }
}

/// One `send(2)` that neither waits (`MSG_DONTWAIT`) nor raises `SIGPIPE`
/// (`MSG_NOSIGNAL`): how many bytes of `bytes` the socket took, 0 if its
/// buffer is full. The socket itself stays blocking, for the writer.
fn send_now(out: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    }
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_NOSIGNAL: i32 = 0x4000;
    loop {
        // SAFETY: `send` reads at most `bytes.len()` bytes from
        // `bytes.as_ptr()`, a live borrow for the whole call, and writes
        // no memory; `out` keeps its descriptor open while it is borrowed.
        let sent = unsafe {
            send(
                out.as_raw_fd(),
                bytes.as_ptr(),
                bytes.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        };
        if let Ok(sent) = usize::try_from(sent) {
            return Ok(sent);
        }
        let e = std::io::Error::last_os_error();
        match e.kind() {
            ErrorKind::Interrupted => continue,
            ErrorKind::WouldBlock => return Ok(0),
            _ => return Err(e),
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

    /// What became of an event offered to a connection.
    #[derive(Debug, PartialEq, Eq)]
    enum Offered {
        /// In the outbound queue.
        Queued,
        /// Dropped (queue full) or suppressed (stream lost): counted as lag.
        Dropped,
        /// Not subscribed, or the connection is closed.
        Nowhere,
    }

    impl OutQueue {
        fn lagged(&self) -> u64 {
            self.state.lock().lagged
        }

        /// `queue_event`, and what became of the event, read off the
        /// counters.
        fn push_event(&self, doc: DocId, frame: &Bytes) -> Offered {
            let counts = || {
                let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
                (
                    count(&self.stats.events_forwarded),
                    count(&self.stats.frames_dropped),
                )
            };
            let before = counts();
            self.queue_event(doc, 0, frame);
            match (counts().0 - before.0, counts().1 - before.1) {
                (1, 0) => Offered::Queued,
                (0, 1) => Offered::Dropped,
                (0, 0) => Offered::Nowhere,
                other => panic!("one event counted as {other:?}"),
            }
        }
    }

    /// A queue with no lag limit, its own counters, and a stream of each
    /// of `docs`.
    fn queue(capacity: usize, docs: &[DocId]) -> OutQueue {
        let q = OutQueue::new(capacity, u64::MAX, Arc::default());
        for &doc in docs {
            q.state.lock().streams.insert(doc, Stream::default());
        }
        q
    }

    fn drain(q: &OutQueue) -> Vec<Bytes> {
        let mut frames = Vec::new();
        q.take(&mut frames);
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
        // stays suppressed (and counts) until a snapshot makes it whole.
        assert_eq!(drain(&q), [frame(1), frame(2)]);
        assert_eq!(q.push_event(DOC, &frame(4)), Offered::Dropped);
        assert_eq!(q.lagged(), 2);
        assert_eq!(q.lost(), [(DOC, 0)]);
        assert!(q.queue_snapshot(DOC, 0, false, 0, frame(9)));
        assert!(q.lost().is_empty());
        assert_eq!(q.lagged(), 0);
        assert_eq!(q.push_event(DOC, &frame(5)), Offered::Queued);
        // An event of a document the connection does not subscribe to
        // goes nowhere.
        assert_eq!(q.push_event(DocId(8), &frame(6)), Offered::Nowhere);
        assert_eq!(drain(&q), [frame(9), frame(5)]);
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
        // goes with the old stream, and the new one starts whole.
        q.close_stream(right);
        assert_eq!(q.lagged(), 3);
        assert!(q.queue_snapshot(right, 1, true, 0, frame(8)));
        assert_eq!(q.lost(), [(left, 0)]);
        for _ in 0..5 {
            assert_eq!(q.push_event(right, &frame(2)), Offered::Dropped);
        }
        // `left` is recovered: only its lag is forgiven.
        assert!(q.queue_snapshot(left, 0, false, 0, frame(9)));
        assert_eq!(q.lagged(), 5);
        assert_eq!(q.lost(), [(right, 0)]);
    }

    /// A snapshot asked for (`Resync`, `Subscribe` again) makes a lost
    /// stream whole, so the unasked recovery that was owed to it is not
    /// queued after it; and a stream closed by `Unsubscribe` is reopened
    /// by neither.
    #[test]
    fn a_snapshot_is_queued_onto_a_stream_that_stands_and_needs_it() {
        let q = queue(1, &[DOC]);
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Queued);
        assert_eq!(q.push_event(DOC, &frame(2)), Offered::Dropped);
        assert!(q.queue_snapshot(DOC, 4, false, 0, frame(8)));
        assert!(!q.queue_snapshot(DOC, 0, false, 0, frame(9)));
        assert_eq!((q.lost(), q.lagged()), (vec![], 0));
        assert_eq!(drain(&q), [frame(1), frame(8)]);
        q.close_stream(DOC);
        assert!(!q.queue_snapshot(DOC, 0, false, 0, frame(9)));
        assert!(!q.queue_snapshot(DOC, 5, false, 0, frame(9)));
        assert_eq!(q.push_event(DOC, &frame(3)), Offered::Nowhere);
        assert!(drain(&q).is_empty());
    }

    /// While the reader owns the write side, what is queued is its to
    /// write; what is queued after its last drain goes to the writer.
    #[test]
    fn the_write_side_has_one_owner() {
        let q = Arc::new(queue(4, &[DOC]));
        assert!(q.own(false));
        let q2 = Arc::clone(&q);
        let writer = std::thread::spawn(move || {
            q2.own(true);
            drain(&q2)
        });
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Queued);
        assert_eq!(drain(&q), [frame(1)]);
        assert_eq!(q.push_event(DOC, &frame(2)), Offered::Queued);
        q.release(false);
        assert_eq!(writer.join().unwrap(), [frame(2)]);
        assert!(!q.own(false), "the writer owns it until it lets go");
    }

    /// Bytes a write without waiting left unsent are the writer's:
    /// neither the reader nor a publisher owns the write side again until
    /// the writer has had it.
    #[test]
    fn bytes_left_unsent_wait_for_the_writer() {
        let q = Arc::new(queue(4, &[DOC]));
        assert!(q.own(false));
        q.release(true);
        assert!(!q.own(false), "the bytes go first, from the writer");
        let q2 = Arc::clone(&q);
        let writer = std::thread::spawn(move || {
            q2.own(true);
            q2.release(false);
        });
        writer.join().unwrap();
        assert!(q.own(false));
    }

    /// Writes without waiting fill a socket nobody reads until one falls
    /// short; the writer's next write, with a frame queued behind, puts
    /// every byte on the wire once, in order: the bytes left unsent first.
    #[test]
    fn bytes_left_unsent_leave_before_later_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let out = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut side = WriteSide {
            out,
            frames: Vec::new(),
            buf: Vec::new(),
            unsent: Vec::new(),
        };
        let stats = StatCells::default();
        let mut sent = Vec::new();
        for n in 0u8.. {
            let frame: Bytes = vec![n; 16 * 1024].into();
            sent.extend_from_slice(&frame);
            side.frames.push(frame);
            side.write(&stats, false).unwrap();
            side.frames.clear();
            if !side.unsent.is_empty() {
                break;
            }
        }
        let later: Bytes = vec![0xEE; 10].into();
        sent.extend_from_slice(&later);
        side.frames.push(later);
        let reader = std::thread::spawn(move || {
            let mut got = vec![0; sent.len()];
            (&peer).read_exact(&mut got).expect("every byte, once");
            (got, sent)
        });
        side.write(&stats, true).unwrap();
        assert!(side.unsent.is_empty());
        let (got, sent) = reader.join().unwrap();
        assert!(got == sent, "the bytes left the socket out of order");
    }

    /// A reply is queued past the capacity; the queue then says it is
    /// full, and waiting for room times out until the writer takes.
    #[test]
    fn a_reply_past_capacity_waits_for_room() {
        let q = queue(1, &[]);
        q.push_reply(frame(1));
        assert_eq!(q.step(), Step::Ready);
        q.push_reply(frame(2));
        assert_eq!(q.step(), Step::Full);
        assert!(!q.wait_room(Duration::from_millis(10)));
        assert_eq!(drain(&q), [frame(1), frame(2)]);
        assert!(q.wait_room(Duration::from_millis(10)));
    }

    /// The publisher whose offer takes the lag past the limit cuts the
    /// connection, and a later cut of the same connection (the writer's
    /// timeout) is not counted again.
    #[test]
    fn lag_past_the_limit_cuts_once() {
        let q = OutQueue::new(1, 2, Arc::default());
        q.state.lock().streams.insert(DOC, Stream::default());
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Queued);
        for _ in 0..3 {
            assert_eq!(q.push_event(DOC, &frame(2)), Offered::Dropped);
        }
        assert_eq!(q.step(), Step::Closed);
        q.cut(&NetError::SlowConsumer);
        assert_eq!(q.stats.slow_disconnects.load(Ordering::Relaxed), 1);
        let frames = drain(&q);
        assert_eq!(frames.len(), 1, "the final frame alone");
        let mut buf = FrameBuffer::default();
        buf.extend(&frames[0]);
        let (tag, payload) = buf.next_frame().unwrap().unwrap();
        assert!(matches!(
            Frame::decode(tag, payload),
            Ok(Frame::Error {
                code: codes::SLOW_CONSUMER,
                ..
            })
        ));
    }

    #[test]
    fn kill_discards_queue_and_emits_final_frame() {
        let q = queue(8, &[DOC]);
        assert_eq!(q.push_event(DOC, &frame(1)), Offered::Queued);
        assert_eq!(q.push_event(DOC, &frame(2)), Offered::Queued);
        q.kill(Some(frame(9)));
        q.kill(Some(frame(8)));
        assert_eq!(q.push_event(DOC, &frame(3)), Offered::Nowhere);
        q.push_reply(frame(4));
        let mut frames = Vec::new();
        assert!(!q.take(&mut frames));
        assert_eq!(frames, [frame(9)]);
    }

    #[test]
    fn wait_unblocks_on_concurrent_push() {
        let q = Arc::new(queue(4, &[DOC]));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            q2.own(true);
            drain(&q2)
        });
        // Whether the push lands before or after the writer parks, the
        // writer must come back with it.
        assert_eq!(q.push_event(DOC, &frame(7)), Offered::Queued);
        assert_eq!(h.join().unwrap(), [frame(7)]);
    }

    /// Everything `conn` hands out, decoded.
    fn handed_out(hub: &Hub, conn: &Conn) -> Vec<Frame> {
        let mut out = Vec::new();
        assert!(conn.drain(hub, &mut out), "the connection closed");
        let decode = |bytes: &Bytes| {
            let mut buf = FrameBuffer::default();
            buf.extend(bytes);
            let (tag, payload) = buf.next_frame().unwrap().expect("one whole frame");
            Frame::decode(tag, payload).unwrap()
        };
        out.iter().map(decode).collect()
    }

    /// The request ids of the snapshots among `frames`.
    fn snapshots(frames: &[Frame]) -> Vec<u64> {
        let request = |f: &Frame| match f {
            Frame::Snapshot { request, .. } => Some(*request),
            _ => None,
        };
        frames.iter().filter_map(request).collect()
    }

    /// A hub serving one document, "doc", and a connection per user,
    /// each subscribed to it and drained.
    fn subscribed(config: NetConfig, users: &[&str]) -> (Arc<Hub>, Vec<Conn>, u64) {
        let tdb = tendax_text::TextDb::in_memory();
        let ids: Vec<UserId> = users.iter().map(|u| tdb.create_user(u).unwrap()).collect();
        let doc = tdb.create_document("doc", ids[0]).unwrap().0;
        let hub = Hub::new(CollabServer::new(tdb), config);
        let conns = users.iter().map(|user| {
            let conn = Conn::new(&hub);
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION,
                user: user.to_string(),
                platform: "Linux".into(),
                token: String::new(),
            };
            conn.on_frame(&hub, hello);
            let name = "doc".into();
            let resume = None;
            conn.on_frame(
                &hub,
                Frame::Subscribe {
                    request: 1,
                    name,
                    resume,
                },
            );
            assert_eq!(snapshots(&handed_out(&hub, &conn)), [1]);
            conn
        });
        let conns = conns.collect();
        (hub, conns, doc)
    }

    /// `conn` types one character at the head of `doc`, publishes the
    /// edit and hands out its reply and echo.
    fn type_one(hub: &Hub, conn: &Conn, doc: u64, request: u64) {
        let text = "x".into();
        let op = EditOp::Insert { pos: 0, text };
        let (step, broadcast) = conn.on_frame(hub, Frame::Edit { request, doc, op });
        assert_eq!(step, Step::Ready);
        broadcast.publish();
        handed_out(hub, conn);
    }

    /// Regression: a `Resync` of a lost stream was answered, and then
    /// `drain` queued the recovery snapshot the stream was still owed,
    /// an unasked second copy of the same document; events offered in
    /// between were suppressed as lag although the client had resynced.
    /// Now the `Resync` makes the stream whole: one snapshot, no lag.
    #[test]
    fn a_resync_of_a_lost_stream_is_answered_by_one_snapshot() {
        let config = NetConfig {
            outbound_capacity: 2,
            lag_limit: 1_000,
            ..NetConfig::default()
        };
        let (hub, conns, doc) = subscribed(config, &["alice", "bob"]);
        let [alice, bob] = &conns[..] else {
            unreachable!("two users")
        };
        // Three events, room for two: alice's stream is lost.
        for request in 2..5 {
            type_one(&hub, bob, doc, request);
        }
        assert_eq!(alice.queue.lagged(), 1);
        let (step, _) = alice.on_frame(&hub, Frame::Resync { request: 2, doc });
        assert_eq!(step, Step::Full);
        let frames = handed_out(&hub, alice);
        assert_eq!(snapshots(&frames), [2], "{frames:?}");
        assert_eq!(alice.queue.lagged(), 0);
        // The stream is whole: the next event is queued behind it.
        type_one(&hub, bob, doc, 5);
        let frames = handed_out(&hub, alice);
        assert!(matches!(frames[..], [Frame::Event(_)]), "{frames:?}");
    }

    /// A `Subscribe` that offers a kept mirror of another document — the
    /// name now resolves elsewhere — is answered by a snapshot; one that
    /// offers a mirror of this document, at its frontier, by a delta.
    #[test]
    fn a_kept_mirror_is_resumed_only_if_the_name_still_names_its_document() {
        let (hub, conns, doc) = subscribed(NetConfig::default(), &["alice", "bob"]);
        let [alice, _] = &conns[..] else {
            unreachable!("two users")
        };
        alice.on_frame(&hub, Frame::Unsubscribe { doc });
        let frontier = hub
            .collab
            .live()
            .snapshot(DocId(doc), UserId(1), |h| h.synced_ts());
        let frontier = frontier.unwrap().expect("bob holds it");
        for (of, delta) in [(doc + 1, false), (doc, true)] {
            let name = "doc".into();
            let resume = Some((of, frontier));
            alice.on_frame(
                &hub,
                Frame::Subscribe {
                    request: 7,
                    name,
                    resume,
                },
            );
            let frames = handed_out(&hub, alice);
            let answered = match frames[..] {
                [Frame::Snapshot { request: 7, .. }] => false,
                [Frame::Delta { request: 7, .. }] => true,
                _ => panic!("{frames:?}"),
            };
            assert_eq!(answered, delta, "resuming a mirror of {of}: {frames:?}");
            alice.on_frame(&hub, Frame::Unsubscribe { doc });
        }
    }

    /// A repeated `Subscribe` is one more read and one more snapshot, and
    /// leaves the stream as it was: one stream, events queued behind.
    #[test]
    fn a_repeated_subscribe_is_one_read_and_one_snapshot() {
        let (hub, conns, doc) = subscribed(NetConfig::default(), &["alice", "bob"]);
        let [alice, bob] = &conns[..] else {
            unreachable!("two users")
        };
        let reads = || hub.collab.textdb().read_count(DocId(doc)).unwrap();
        assert_eq!(reads(), 2);
        let name = "doc".into();
        let resume = None;
        alice.on_frame(
            &hub,
            Frame::Subscribe {
                request: 2,
                name,
                resume,
            },
        );
        assert_eq!(snapshots(&handed_out(&hub, alice)), [2]);
        assert_eq!(reads(), 3);
        type_one(&hub, bob, doc, 2);
        let frames = handed_out(&hub, alice);
        assert!(matches!(frames[..], [Frame::Event(_)]), "{frames:?}");
        assert_eq!(hub.subscribers.read()[&DocId(doc)].len(), 2);
    }
}
