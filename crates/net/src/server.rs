//! The TCP collaboration server.
//!
//! Multiplexes many client connections over one [`CollabServer`]: each
//! accepted socket gets a handshake, a server-side [`EditorSession`]
//! (so edits reuse the retry/awareness machinery), a reader thread, a
//! writer thread draining a **bounded** outbound queue, and one
//! forwarder thread per subscribed document pumping committed events
//! from the in-process [`Transport`] onto the wire.
//!
//! ## Slow-consumer policy
//!
//! The outbound queue has a fixed capacity. Broadcast frames (`Event`)
//! are enqueued with `try_push`: when the queue is full the frame is
//! dropped and counted as lag, and the event stream is *lost* — the
//! client has a gap it cannot detect, so the forwarder suppresses
//! further events (each counted as lag) and schedules a recovery
//! snapshot. Delivering the snapshot resets the lag counter; failing to
//! deliver it within `critical_send_timeout`, or accumulating more than
//! `lag_limit` outstanding lag before it lands, kills the connection:
//! the queue is cleared, a final `Error{SLOW_CONSUMER}` frame is
//! emitted, and the socket closes. Reply frames (`Snapshot`, `EditOk`,
//! `Pong`, …) are *critical*: the sender waits up to
//! `critical_send_timeout` for queue space and kills the connection if
//! the client cannot even absorb replies. This is the [`LanBus`] policy
//! (bound, count, evict) plus the resync step a remote mirror needs —
//! one slow editor can never wedge the server or the other editors.
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tendax_collab::{CollabServer, EditorDoc, EditorSession, Platform};
use tendax_text::DocId;

use crate::error::{codes, NetError, Result};
use crate::protocol::{encode_snapshot, EditOp, Frame, WireEvent, WirePresence, PROTOCOL_VERSION};
use crate::wire::FrameBuffer;

/// How committed events get forwarded from the in-process transport
/// onto connections' outbound queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwarderMode {
    /// One dedicated pump thread per (connection, document)
    /// subscription — the original design. Simple, but the server's
    /// thread count scales as connections × subscribed documents.
    PerSubscription,
    /// A fixed pool of worker threads multiplexing every subscription
    /// on the server. Thread count is constant regardless of how many
    /// clients subscribe to how many documents. The value is the worker
    /// count (clamped to at least 1).
    Pooled(usize),
}

/// Tuning knobs of the TCP server.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Shared secret required in `Hello::token`; `None` accepts any.
    pub token: Option<String>,
    /// Outbound queue capacity, in frames, per connection.
    pub outbound_capacity: usize,
    /// Dropped frames tolerated before a lagging connection is cut.
    pub lag_limit: u64,
    /// How long a critical (reply) frame may wait for queue space.
    pub critical_send_timeout: Duration,
    /// Socket read timeout of the per-connection reader loop; bounds
    /// how quickly kill flags and shutdown are observed.
    pub read_tick: Duration,
    /// Maximum simultaneously served connections. Excess clients are
    /// turned away with a `Frame::Error { code: CAPACITY }` goodbye
    /// before any per-connection threads or sessions exist, so an
    /// accept flood cannot exhaust the process.
    pub max_connections: usize,
    /// Event-forwarding strategy (see [`ForwarderMode`]).
    pub forwarder: ForwarderMode,
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
            forwarder: ForwarderMode::Pooled(4),
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
    /// Frames dropped from full outbound queues across all connections.
    pub frames_dropped: u64,
    /// Event frames successfully enqueued by forwarders across all
    /// connections.
    pub events_forwarded: u64,
    /// Connections turned away at the `max_connections` limit.
    pub capacity_rejects: u64,
    /// Threads created for event forwarding over the server's lifetime:
    /// one per subscription in [`ForwarderMode::PerSubscription`], the
    /// fixed worker count in [`ForwarderMode::Pooled`].
    pub forwarder_threads: u64,
    /// Pooled-forwarder wakeups whose following pass over the task
    /// queue delivered nothing. With a hook-driven transport these
    /// should stay near zero; a climbing count means workers are being
    /// notified (or tick-polled) without work to do.
    pub pool_spurious_wakeups: u64,
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
    forwarder_threads: AtomicU64,
    pool_spurious_wakeups: AtomicU64,
}

/// Bounded outbound frame queue with a kill switch.
#[derive(Debug)]
struct OutQueue {
    state: Mutex<QueueState>,
    /// Signalled when frames arrive (writer waits on this).
    data: Condvar,
    /// Signalled when space frees up (critical senders wait on this).
    space: Condvar,
    capacity: usize,
    lagged: AtomicU64,
}

#[derive(Debug, Default)]
struct QueueState {
    frames: VecDeque<Vec<u8>>,
    /// No more pushes; the writer drains what remains, then closes.
    closing: bool,
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

    /// Enqueue a droppable frame. Full queue = drop + lag count.
    fn try_push(&self, frame: Vec<u8>) -> bool {
        let mut s = self.state.lock();
        if s.closing {
            return false;
        }
        if s.frames.len() >= self.capacity {
            drop(s);
            self.lagged.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        s.frames.push_back(frame);
        self.data.notify_one();
        true
    }

    /// Enqueue a reply frame, waiting up to `timeout` for space.
    fn push_critical(&self, frame: Vec<u8>, timeout: Duration) -> Result<()> {
        let mut s = self.state.lock();
        loop {
            if s.closing {
                return Err(NetError::Closed);
            }
            if s.frames.len() < self.capacity {
                s.frames.push_back(frame);
                self.data.notify_one();
                return Ok(());
            }
            if self.space.wait_for(&mut s, timeout).timed_out() {
                return Err(NetError::SlowConsumer);
            }
        }
    }

    /// Discard everything queued, emit one final frame, and close.
    fn kill(&self, last_frame: Option<Vec<u8>>) {
        let mut s = self.state.lock();
        if s.closing {
            return;
        }
        s.frames.clear();
        if let Some(f) = last_frame {
            s.frames.push_back(f);
        }
        s.closing = true;
        self.data.notify_all();
        self.space.notify_all();
    }

    /// Next frame for the writer; `None` once closed and drained.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut s = self.state.lock();
        loop {
            if let Some(f) = s.frames.pop_front() {
                self.space.notify_one();
                return Some(f);
            }
            if s.closing {
                return None;
            }
            self.data.wait(&mut s);
        }
    }

    fn lagged(&self) -> u64 {
        self.lagged.load(Ordering::Relaxed)
    }

    /// Count a suppressed (not even attempted) frame as lag.
    fn note_lag(&self) {
        self.lagged.fetch_add(1, Ordering::Relaxed);
    }

    /// A recovery snapshot was delivered: outstanding lag is resolved.
    fn reset_lag(&self) {
        self.lagged.store(0, Ordering::Relaxed);
    }
}

/// Handles shared between a connection's threads.
#[derive(Debug)]
struct ConnShared {
    queue: OutQueue,
    /// Set when any thread decides the connection must die.
    dead: AtomicBool,
    stream: TcpStream,
}

impl ConnShared {
    fn kill(&self, last_frame: Option<Vec<u8>>) {
        self.dead.store(true, Ordering::Release);
        self.queue.kill(last_frame);
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }
}

/// A running TCP server. Dropping it shuts everything down.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Arc<ConnShared>>>>,
    stats: Arc<StatCells>,
    pool: Option<Arc<ForwarderPool>>,
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
        let conns: Arc<Mutex<Vec<Arc<ConnShared>>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(StatCells::default());
        let pool = match config.forwarder {
            ForwarderMode::PerSubscription => None,
            ForwarderMode::Pooled(n) => Some(ForwarderPool::start(
                n.max(1),
                collab.clone(),
                config.clone(),
                Arc::clone(&stats),
            )),
        };

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let stats = Arc::clone(&stats);
            let pool = pool.clone();
            let live = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("tendax-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        stats.accepted.fetch_add(1, Ordering::Relaxed);
                        if live.load(Ordering::Acquire) >= config.max_connections {
                            stats.capacity_rejects.fetch_add(1, Ordering::Relaxed);
                            reject_at_capacity(stream, config.max_connections);
                            continue;
                        }
                        // Reap finished connections so the registry does
                        // not grow with server lifetime.
                        conns.lock().retain(|c: &Arc<ConnShared>| !c.is_dead());
                        let collab = collab.clone();
                        let config = config.clone();
                        let conns = Arc::clone(&conns);
                        let stats = Arc::clone(&stats);
                        let pool = pool.clone();
                        live.fetch_add(1, Ordering::AcqRel);
                        let guard = LiveGuard(Arc::clone(&live));
                        let spawned = std::thread::Builder::new()
                            .name("tendax-net-conn".into())
                            .spawn(move || {
                                let _guard = guard;
                                handle_connection(stream, collab, config, conns, stats, pool);
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
            conns,
            stats,
            pool,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> NetServerStats {
        NetServerStats {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            auth_failures: self.stats.auth_failures.load(Ordering::Relaxed),
            protocol_errors: self.stats.protocol_errors.load(Ordering::Relaxed),
            slow_disconnects: self.stats.slow_disconnects.load(Ordering::Relaxed),
            frames_dropped: self.stats.frames_dropped.load(Ordering::Relaxed),
            events_forwarded: self.stats.events_forwarded.load(Ordering::Relaxed),
            capacity_rejects: self.stats.capacity_rejects.load(Ordering::Relaxed),
            forwarder_threads: self.stats.forwarder_threads.load(Ordering::Relaxed),
            pool_spurious_wakeups: self.stats.pool_spurious_wakeups.load(Ordering::Relaxed),
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
        for conn in self.conns.lock().drain(..) {
            conn.kill(None);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
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

/// The encoded `Snapshot` frame of a fresh database open, so `synced_ts`
/// and the character chain describe the same (current) commit frontier
/// — a long-lived editor's handle would understate it (see
/// [`encode_snapshot`]).
fn db_snapshot(collab: &CollabServer, doc: DocId, user: tendax_text::UserId) -> Option<Vec<u8>> {
    let h = collab.textdb().open(doc, user).ok()?;
    Some(encode_snapshot(&h))
}

/// One subscription's forwarder control block. `pump` is `Some` in
/// [`ForwarderMode::PerSubscription`] (a dedicated thread to join); in
/// pooled mode the `stop` flag tells the pool to discard the task on
/// its next visit.
struct SubState {
    editor: EditorDoc,
    stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

impl SubState {
    fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        // Dropping `editor` clears this session's presence on the doc.
    }
}

/// How long a worker parks once a full pass over the task queue
/// produced no events, on a transport whose publish hook is a no-op
/// ([`Transport::supports_publish_hook`] is `false`): with no
/// notification path, polling is the only way to observe new events.
/// Hook-driven transports park without any timeout instead — the
/// epoch-checked condvar protocol below makes that safe.
const POOL_IDLE_BACKOFF: Duration = Duration::from_millis(1);

/// How many tasks a pool worker claims from the shared queue per lock
/// acquisition. Visits are non-blocking, so a larger batch amortizes
/// queue-mutex traffic without starving other workers for long.
const POOL_VISIT_BATCH: usize = 16;

/// Per-attempt wait for a recovery snapshot's queue space in pooled
/// mode. Deliberately short: a worker must not be pinned for the full
/// `critical_send_timeout` by one slow consumer — the overall deadline
/// is tracked across visits in [`PumpTask::recover_by`].
const POOL_RECOVERY_TRY: Duration = Duration::from_millis(10);

/// One subscription's forwarding state, owned by the pool between
/// worker visits.
struct PumpTask {
    doc: DocId,
    source: Box<dyn tendax_collab::EventSource>,
    shared: Arc<ConnShared>,
    stop: Arc<AtomicBool>,
    user: tendax_text::UserId,
    /// The client has an undetectable gap; suppress events until a
    /// recovery snapshot lands (same protocol as the dedicated pump).
    lost: bool,
    /// Deadline for delivering the pending recovery snapshot; set when
    /// `lost` flips true, cleared when the snapshot lands.
    recover_by: Option<Instant>,
}

/// A fixed set of worker threads multiplexing every subscription's
/// event forwarding. Workers take one task at a time off the shared
/// queue (which serializes each task without per-task locks), drain its
/// pending events without blocking, and put it back; a worker only
/// parks ([`POOL_IDLE_BACKOFF`]) after a whole pass found nothing.
struct ForwarderPool {
    tasks: Mutex<VecDeque<PumpTask>>,
    /// Signalled when tasks are submitted, events are published, or
    /// shutdown begins.
    wake: Condvar,
    shutdown: AtomicBool,
    /// The transport delivers publish notifications
    /// ([`Transport::supports_publish_hook`]): workers park on the
    /// condvar without a fallback tick.
    hooked: bool,
    /// Wake-signal generation, bumped by every submit/publish/shutdown
    /// before its notify. A worker records the epoch at the start of a
    /// pass and parks only if it is unchanged when it takes the queue
    /// lock — the poll happens outside that lock, so this is what
    /// closes the "published right after an empty poll" window that an
    /// untimed park would otherwise sleep through. Signals notify
    /// *under* the queue lock, so a parked worker can never miss one.
    epoch: AtomicU64,
    collab: CollabServer,
    config: NetConfig,
    stats: Arc<StatCells>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ForwarderPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForwarderPool")
            .field("tasks", &self.tasks.lock().len())
            .finish_non_exhaustive()
    }
}

impl ForwarderPool {
    fn start(
        workers: usize,
        collab: CollabServer,
        config: NetConfig,
        stats: Arc<StatCells>,
    ) -> Arc<ForwarderPool> {
        let hooked = collab.transport().supports_publish_hook();
        let pool = Arc::new(ForwarderPool {
            tasks: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            hooked,
            epoch: AtomicU64::new(0),
            collab,
            config,
            stats,
            workers: Mutex::new(Vec::with_capacity(workers)),
        });
        let mut handles = pool.workers.lock();
        for i in 0..workers {
            let pool2 = Arc::clone(&pool);
            pool.stats.forwarder_threads.fetch_add(1, Ordering::Relaxed);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tendax-net-pool-{i}"))
                    .spawn(move || pool2.worker_loop())
                    .expect("spawn pool worker"),
            );
        }
        drop(handles);
        // Wake parked workers the moment anything is published, so the
        // pool delivers with commit-driven latency instead of polling.
        // On a hooked transport this is the *only* wake source for
        // parked idle workers, so the signal follows the epoch protocol
        // (see [`ForwarderPool::signal`]). Weak: the hook must not keep
        // the pool (and its collab/bus cycle) alive — once the pool is
        // gone the hook deregisters itself by returning false.
        let weak = Arc::downgrade(&pool);
        pool.collab
            .transport()
            .register_publish_hook(Box::new(move || match weak.upgrade() {
                Some(pool) => {
                    pool.signal();
                    true
                }
                None => false,
            }));
        pool
    }

    /// Bump the wake epoch and notify every parked worker. The notify
    /// happens under the queue lock: a worker holds that lock from its
    /// final epoch check until the condvar takes it inside `wait`, so
    /// the signal either lands before the check (epoch mismatch, no
    /// park) or after the park (notify delivered) — never in between.
    fn signal(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        let _guard = self.tasks.lock();
        self.wake.notify_all();
    }

    /// Register a new subscription with the pool.
    fn submit(&self, task: PumpTask) {
        self.epoch.fetch_add(1, Ordering::Release);
        let mut guard = self.tasks.lock();
        guard.push_back(task);
        self.wake.notify_all();
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.signal();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Dropping the remaining tasks unsubscribes their sources.
        self.tasks.lock().clear();
    }

    fn worker_loop(self: Arc<Self>) {
        // Consecutive unproductive visits. Once a full pass over the
        // queue yields no events, the worker parks instead of spinning
        // through non-blocking polls.
        let mut idle_streak = 0usize;
        // The previous iteration ended in a park. If the pass that
        // follows the wakeup delivers nothing, the wakeup was spurious
        // (counted so receipts can prove hook-driven parking is quiet).
        let mut woke = false;
        let mut batch: Vec<PumpTask> = Vec::with_capacity(POOL_VISIT_BATCH);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Epoch at the start of the pass: the polls below run
            // outside the queue lock, so before parking the worker
            // re-checks this under the lock — any signal since (publish,
            // submit, shutdown) aborts the park instead of being lost.
            let pass_epoch = self.epoch.load(Ordering::Acquire);
            // Take a batch of tasks in one lock acquisition: with
            // hundreds of subscriptions and a handful of workers, the
            // shared queue's mutex is the scaling bottleneck, not the
            // polls themselves.
            let queue_len = {
                let mut guard = self.tasks.lock();
                let len = guard.len();
                let take = len.min(POOL_VISIT_BATCH);
                batch.extend(guard.drain(..take));
                len
            };
            if batch.is_empty() {
                if std::mem::take(&mut woke) {
                    self.stats
                        .pool_spurious_wakeups
                        .fetch_add(1, Ordering::Relaxed);
                }
                let mut guard = self.tasks.lock();
                if guard.is_empty() && !self.shutdown.load(Ordering::Acquire) {
                    // Queue emptiness is guarded by this lock and every
                    // submit notifies under it, so the hooked park needs
                    // no timeout at all; hookless transports keep a tick
                    // only to notice events, not tasks.
                    if self.hooked {
                        self.wake.wait(&mut guard);
                    } else {
                        self.wake.wait_for(&mut guard, Duration::from_millis(20));
                    }
                    woke = true;
                }
                idle_streak = 0;
                continue;
            }
            let visited = batch.len();
            let mut any_progress = false;
            // A surviving task mid-recovery waits on *queue space*, which
            // frees when the connection's writer drains — no pool signal
            // fires for that. A worker that just requeued such a task
            // must keep a retry tick instead of parking untimed.
            let mut needs_tick = false;
            let mut survivors: Vec<PumpTask> = Vec::with_capacity(visited);
            for mut task in batch.drain(..) {
                if task.stop.load(Ordering::Acquire) || task.shared.is_dead() {
                    continue; // discard; dropping the source unsubscribes
                }
                let (keep, progress) = self.pump(&mut task);
                any_progress |= progress;
                if keep {
                    needs_tick |= task.lost;
                    survivors.push(task);
                }
            }
            if !survivors.is_empty() {
                self.tasks.lock().extend(survivors.drain(..));
            }
            if any_progress {
                idle_streak = 0;
                woke = false;
            } else {
                if std::mem::take(&mut woke) {
                    self.stats
                        .pool_spurious_wakeups
                        .fetch_add(1, Ordering::Relaxed);
                }
                idle_streak += visited;
                if idle_streak >= queue_len {
                    idle_streak = 0;
                    let mut guard = self.tasks.lock();
                    if !self.shutdown.load(Ordering::Acquire) {
                        if self.hooked && !needs_tick {
                            // Pure condvar parking: sleep only if no
                            // signal has fired since the pass began.
                            if self.epoch.load(Ordering::Acquire) == pass_epoch {
                                self.wake.wait(&mut guard);
                                woke = true;
                            }
                        } else if needs_tick {
                            self.wake.wait_for(&mut guard, POOL_RECOVERY_TRY);
                            woke = true;
                        } else {
                            self.wake.wait_for(&mut guard, POOL_IDLE_BACKOFF);
                            woke = true;
                        }
                    }
                }
            }
        }
    }

    /// One non-blocking forwarding visit for `task`. Returns
    /// `(keep, progress)`: whether to requeue the task, and whether the
    /// visit did any work (drives the caller's idle backoff). Same
    /// protocol as [`spawn_forwarder`]'s loop body, except that a
    /// recovery snapshot blocked on queue space is retried across
    /// visits against `recover_by` instead of pinning a thread for the
    /// full critical timeout.
    fn pump(&self, task: &mut PumpTask) -> (bool, bool) {
        let events = task.source.poll();
        let mut progress = !events.is_empty();
        for ev in events {
            if task.lost {
                self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                task.shared.queue.note_lag();
                continue;
            }
            let frame = Frame::Event(WireEvent::from(ev.as_ref())).encode();
            if task.shared.queue.try_push(frame) {
                self.stats.events_forwarded.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                task.lost = true;
            }
        }
        if task.source.lagged_out() {
            task.source = self.collab.transport().connect(task.doc, Duration::ZERO);
            task.lost = true;
        }
        if task.lost {
            progress = true; // recovery in flight: keep visiting promptly
            let deadline = *task
                .recover_by
                .get_or_insert_with(|| Instant::now() + self.config.critical_send_timeout);
            if let Some(snap) = db_snapshot(&self.collab, task.doc, task.user) {
                match task.shared.queue.push_critical(snap, POOL_RECOVERY_TRY) {
                    Ok(()) => {
                        task.shared.queue.reset_lag();
                        task.lost = false;
                        task.recover_by = None;
                    }
                    Err(_) if Instant::now() >= deadline => {
                        self.stats.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                        task.shared.kill(Some(
                            Frame::Error {
                                code: codes::SLOW_CONSUMER,
                                message: NetError::SlowConsumer.to_string(),
                            }
                            .encode(),
                        ));
                        return (false, true);
                    }
                    Err(_) => {} // retry on the next visit
                }
            }
        }
        (true, progress)
    }
}

fn handle_connection(
    stream: TcpStream,
    collab: CollabServer,
    config: NetConfig,
    conns: Arc<Mutex<Vec<Arc<ConnShared>>>>,
    stats: Arc<StatCells>,
    pool: Option<Arc<ForwarderPool>>,
) {
    let _ = stream.set_nodelay(true);
    let shared = Arc::new(ConnShared {
        queue: OutQueue::new(config.outbound_capacity),
        dead: AtomicBool::new(false),
        stream: match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    });
    conns.lock().push(Arc::clone(&shared));

    // Writer thread: drains the bounded queue onto the socket. The
    // write timeout is the last line of the slow-consumer defence: a
    // peer that stops reading long enough to fill the kernel buffer
    // loses the connection instead of pinning this thread forever.
    let writer = {
        let shared = Arc::clone(&shared);
        let stats = Arc::clone(&stats);
        let mut out = match shared.stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let _ = out.set_write_timeout(Some(config.critical_send_timeout));
        std::thread::Builder::new()
            .name("tendax-net-writer".into())
            .spawn(move || {
                while let Some(frame) = shared.queue.pop() {
                    if let Err(e) = out.write_all(&frame) {
                        // A write timeout means the peer stopped reading
                        // long enough to fill the kernel buffer: that is
                        // the slow-consumer policy firing, not an I/O
                        // accident, so account for it as such.
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) {
                            stats.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        shared.kill(None);
                        break;
                    }
                }
                let _ = out.shutdown(std::net::Shutdown::Both);
            })
            .expect("spawn writer thread")
    };

    let result = serve_client(&stream, &collab, &config, &shared, &stats, pool.as_ref());

    match result {
        Ok(()) => shared.kill(None),
        Err(err) => {
            let (code, counts_as) = match &err {
                NetError::Auth(_) => (codes::AUTH, &stats.auth_failures),
                NetError::SlowConsumer => (codes::SLOW_CONSUMER, &stats.slow_disconnects),
                NetError::AtCapacity { .. } => (codes::CAPACITY, &stats.capacity_rejects),
                NetError::Io(_) | NetError::Closed => (0, &stats.accepted),
                _ => (codes::PROTOCOL, &stats.protocol_errors),
            };
            if code != 0 {
                counts_as.fetch_add(1, Ordering::Relaxed);
                let frame = Frame::Error {
                    code,
                    message: err.to_string(),
                }
                .encode();
                shared.kill(Some(frame));
            } else {
                shared.kill(None);
            }
        }
    }
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
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

fn serve_client(
    stream: &TcpStream,
    collab: &CollabServer,
    config: &NetConfig,
    shared: &Arc<ConnShared>,
    stats: &Arc<StatCells>,
    pool: Option<&Arc<ForwarderPool>>,
) -> Result<()> {
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
    let session_id = session.id();
    shared.queue.push_critical(
        Frame::Welcome {
            session: session_id.0,
        }
        .encode(),
        config.critical_send_timeout,
    )?;

    // --- Main loop. --------------------------------------------------
    let mut subs: HashMap<DocId, SubState> = HashMap::new();
    let critical_bytes = |frame: Vec<u8>| -> Result<()> {
        shared
            .queue
            .push_critical(frame, config.critical_send_timeout)
    };
    let critical = |frame: Frame| critical_bytes(frame.encode());

    let run = loop {
        if shared.is_dead() {
            break Ok(());
        }
        // The forwarders count lag; the reader enforces the limit so the
        // error frame is produced exactly once.
        if shared.queue.lagged() > config.lag_limit {
            break Err(NetError::SlowConsumer);
        }
        let frame = match read_tick(stream, &mut buf, &mut scratch) {
            Ok(None) => continue,
            Ok(Some((tag, payload))) => Frame::decode(tag, &payload)?,
            Err(e) => break Err(e),
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
                if subs.contains_key(&doc) {
                    match db_snapshot(collab, doc, session.user()) {
                        Some(snap) => critical_bytes(snap)?,
                        None => critical(Frame::Error {
                            code: codes::REJECTED,
                            message: format!("cannot snapshot {name:?}"),
                        })?,
                    }
                    continue;
                }
                // Order matters: the forwarder's event source connects
                // *before* the snapshot is taken, so no committed event
                // can fall between them — events older than the snapshot
                // are dropped client-side by the ts gate.
                let source = collab.transport().connect(doc, Duration::ZERO);
                let editor = match session.open_id(doc) {
                    Ok(ed) => ed,
                    Err(e) => {
                        critical(Frame::Error {
                            code: codes::REJECTED,
                            message: format!("cannot open {name:?}: {e}"),
                        })?;
                        continue;
                    }
                };
                // Just opened, so the handle's frontier is current.
                critical_bytes(encode_snapshot(editor.handle()))?;
                let stop = Arc::new(AtomicBool::new(false));
                let pump = match pool {
                    Some(pool) => {
                        pool.submit(PumpTask {
                            doc,
                            source,
                            shared: Arc::clone(shared),
                            stop: Arc::clone(&stop),
                            user: session.user(),
                            lost: false,
                            recover_by: None,
                        });
                        None
                    }
                    None => Some(spawn_forwarder(
                        doc,
                        source,
                        Arc::clone(shared),
                        Arc::clone(&stop),
                        collab.clone(),
                        session.user(),
                        config.clone(),
                        Arc::clone(stats),
                    )),
                };
                subs.insert(doc, SubState { editor, stop, pump });
            }
            Frame::Unsubscribe { doc } => {
                if let Some(sub) = subs.remove(&DocId(doc)) {
                    sub.stop();
                }
            }
            Frame::Edit { request, doc, op } => {
                let Some(sub) = subs.get_mut(&DocId(doc)) else {
                    critical(Frame::EditRejected {
                        request,
                        message: "not subscribed to this document".into(),
                    })?;
                    continue;
                };
                let ed = &mut sub.editor;
                // Catch up on remote events so positions resolve against
                // the freshest server state; client positions are
                // advisory and clamped (they may race remote edits).
                ed.sync();
                let outcome = match op {
                    EditOp::Insert { pos, text } => {
                        let pos = (pos as usize).min(ed.len());
                        ed.type_text(pos, &text)
                    }
                    EditOp::Delete { pos, len } => {
                        let pos = (pos as usize).min(ed.len());
                        let len = (len as usize).min(ed.len() - pos);
                        ed.delete(pos, len)
                    }
                };
                match outcome {
                    Ok(receipt) => critical(Frame::EditOk {
                        request,
                        op: receipt.op.0,
                        commit_ts: receipt.commit_ts,
                    })?,
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
                collab.presence_update(session_id, |p| {
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
                if !subs.contains_key(&DocId(doc)) {
                    critical(Frame::Error {
                        code: codes::NOT_FOUND,
                        message: "not subscribed to this document".into(),
                    })?;
                    continue;
                }
                // The snapshot comes from a fresh database open, not the
                // long-lived server-side editor: a fresh handle's
                // `synced_ts` is the true current commit frontier,
                // whereas the editor's only advances on full rebuilds.
                match db_snapshot(collab, DocId(doc), session.user()) {
                    Some(snap) => critical_bytes(snap)?,
                    None => critical(Frame::Error {
                        code: codes::REJECTED,
                        message: "cannot snapshot document".into(),
                    })?,
                }
            }
            Frame::Bye => break Ok(()),
            // Server-to-client frames arriving here are a violation.
            other => {
                break Err(NetError::Protocol(format!(
                    "client may not send frame 0x{:02x}",
                    other.tag()
                )))
            }
        }
    };

    for (_, sub) in subs.drain() {
        sub.stop();
    }
    collab.awareness().remove(session_id);
    run
}

/// Spawn the per-subscription forwarder: pumps committed events from the
/// in-process transport onto this connection's outbound queue.
#[allow(clippy::too_many_arguments)]
fn spawn_forwarder(
    doc: DocId,
    mut source: Box<dyn tendax_collab::EventSource>,
    shared: Arc<ConnShared>,
    stop: Arc<AtomicBool>,
    collab: CollabServer,
    user: tendax_text::UserId,
    config: NetConfig,
    stats: Arc<StatCells>,
) -> JoinHandle<()> {
    stats.forwarder_threads.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name("tendax-net-pump".into())
        .spawn(move || {
            // Once an event frame is dropped the client has a gap it
            // cannot detect, so the stream is `lost`: further events are
            // suppressed (each counted as lag) until a recovery snapshot
            // is delivered, which resets the lag counter. A client that
            // cannot absorb the recovery snapshot within the critical
            // timeout — or whose outstanding lag passes `lag_limit`
            // before recovery lands (the reader enforces that) — is cut.
            let mut lost = false;
            loop {
                if stop.load(Ordering::Acquire) || shared.is_dead() {
                    return;
                }
                for ev in source.poll_timeout(config.read_tick) {
                    if lost {
                        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        shared.queue.note_lag();
                        continue;
                    }
                    let frame = Frame::Event(WireEvent::from(ev.as_ref())).encode();
                    if shared.queue.try_push(frame) {
                        stats.events_forwarded.fetch_add(1, Ordering::Relaxed);
                    } else {
                        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        lost = true;
                    }
                }
                // Evicted from the in-process bus (this pump itself
                // lagged): resubscribe, then resync the client.
                if source.lagged_out() {
                    source = collab.transport().connect(doc, Duration::ZERO);
                    lost = true;
                }
                if lost {
                    let Some(snap) = db_snapshot(&collab, doc, user) else {
                        continue;
                    };
                    match shared
                        .queue
                        .push_critical(snap, config.critical_send_timeout)
                    {
                        Ok(()) => {
                            // The snapshot covers everything suppressed:
                            // the client is consistent again.
                            shared.queue.reset_lag();
                            lost = false;
                        }
                        Err(_) => {
                            // The client cannot even absorb the recovery
                            // snapshot: cut it.
                            stats.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                            shared.kill(Some(
                                Frame::Error {
                                    code: codes::SLOW_CONSUMER,
                                    message: NetError::SlowConsumer.to_string(),
                                }
                                .encode(),
                            ));
                            return;
                        }
                    }
                }
            }
        })
        .expect("spawn forwarder thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_push_drops_and_counts_past_capacity() {
        let q = OutQueue::new(2);
        assert!(q.try_push(vec![1]));
        assert!(q.try_push(vec![2]));
        assert!(!q.try_push(vec![3]));
        assert!(!q.try_push(vec![4]));
        assert_eq!(q.lagged(), 2);
        // Draining frees capacity again.
        assert_eq!(q.pop(), Some(vec![1]));
        assert!(q.try_push(vec![5]));
    }

    #[test]
    fn push_critical_times_out_on_full_queue() {
        let q = OutQueue::new(1);
        q.push_critical(vec![1], Duration::from_millis(10)).unwrap();
        match q.push_critical(vec![2], Duration::from_millis(10)) {
            Err(NetError::SlowConsumer) => {}
            other => panic!("expected SlowConsumer, got {other:?}"),
        }
    }

    #[test]
    fn kill_discards_queue_and_emits_final_frame() {
        let q = OutQueue::new(8);
        assert!(q.try_push(vec![1]));
        assert!(q.try_push(vec![2]));
        q.kill(Some(vec![9]));
        assert!(!q.try_push(vec![3]));
        assert!(matches!(
            q.push_critical(vec![4], Duration::from_millis(5)),
            Err(NetError::Closed)
        ));
        assert_eq!(q.pop(), Some(vec![9]));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_unblocks_on_concurrent_push() {
        let q = Arc::new(OutQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        assert!(q.try_push(vec![7]));
        assert_eq!(h.join().unwrap(), Some(vec![7]));
    }
}
