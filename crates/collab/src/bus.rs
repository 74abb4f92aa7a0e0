//! The simulated-LAN event bus.
//!
//! The EDBT demo ran editors on several machines on a LAN; committed
//! transactions were pushed to every connected editor so "everything
//! which is typed appears within the editor as soon as [it is] stored
//! persistently". This module reproduces that push channel in-process:
//! publishers broadcast [`DocEvent`]s, each subscriber has a configurable
//! one-way latency, and messages become visible to `poll` only after
//! their latency has elapsed — enough to reproduce the ordering and
//! awareness behaviour of the real network deterministically.
//!
//! ## Backpressure
//!
//! Per-subscriber queues are **bounded** ([`BusPolicy`]). A subscriber
//! that stops polling does not grow a queue without bound and does not
//! slow anyone else down: once its queue is full further events are
//! dropped (counted in [`TransportStats::dropped`]),
//! and once the drops exceed the lag limit the subscriber is evicted.
//! An evicted subscriber observes [`Subscription::lagged_out`] and must
//! resynchronize from the database before re-subscribing — the same
//! slow-consumer policy `tendax-net` applies to TCP connections.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use tendax_text::{DocId, Effect, OpId, UserId};

/// Identifier of an editor session on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// One committed operation, as broadcast to all editors.
#[derive(Debug, Clone, PartialEq)]
pub struct DocEvent {
    pub doc: DocId,
    pub op: OpId,
    /// Commit timestamp of the transaction that produced the effects.
    /// Receivers drop events at or below their rebuild snapshot: a full
    /// refresh already reflects them.
    pub commit_ts: u64,
    pub user: UserId,
    /// The session that performed the edit (receivers skip their own).
    pub origin: SessionId,
    pub kind: String,
    pub effects: Vec<Effect>,
}

/// Bounded-queue policy for subscribers (shared by the TCP server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusPolicy {
    /// Maximum undelivered events queued per subscriber; further events
    /// are dropped (and counted) until the consumer catches up.
    pub capacity: usize,
    /// Cumulative drops a subscriber may accrue before it is evicted.
    pub lag_limit: u64,
}

impl Default for BusPolicy {
    fn default() -> Self {
        BusPolicy {
            capacity: 1024,
            lag_limit: 256,
        }
    }
}

#[derive(Debug)]
struct Subscriber {
    doc: DocId,
    latency: Duration,
    tx: Sender<(Instant, Arc<DocEvent>)>,
    /// Undelivered events currently in this subscriber's queue; shared
    /// with the [`Subscription`], which decrements as it receives.
    depth: Arc<AtomicUsize>,
    /// Events dropped because the queue was full.
    lagged: u64,
    /// Set on eviction so the subscription can tell "evicted for
    /// lagging" apart from "bus dropped".
    evicted: Arc<AtomicBool>,
}

#[derive(Debug, Default)]
struct BusInner {
    subscribers: HashMap<u64, Subscriber>,
    next_sub: u64,
    published: u64,
    delivered: u64,
    dropped: u64,
    evicted: u64,
}

/// Delivery/backpressure counters of a bus, cumulative since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Events handed to `publish`.
    pub published: u64,
    /// Per-subscriber deliveries (one publish to N subscribers counts N).
    pub delivered: u64,
    /// Deliveries skipped because a subscriber's queue was full.
    pub dropped: u64,
    /// Subscribers evicted for lagging past the policy limit.
    pub evicted: u64,
}

/// See [`LanBus::register_publish_hook`].
pub type PublishHook = Box<dyn Fn(&Arc<DocEvent>) -> bool + Send + Sync>;

/// Publish hooks (see [`LanBus::register_publish_hook`]). The list is
/// shared copy-on-write: a publisher clones the `Arc` and calls the hooks
/// with neither this lock nor the subscriber lock held.
#[derive(Default)]
struct HookSet(Mutex<Arc<Vec<Arc<PublishHook>>>>);

impl std::fmt::Debug for HookSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("HookSet")
            .field(&self.0.lock().len())
            .finish()
    }
}

/// The shared broadcast bus. Cheap to clone.
#[derive(Debug, Clone)]
pub struct LanBus {
    inner: Arc<Mutex<BusInner>>,
    hooks: Arc<HookSet>,
    policy: BusPolicy,
}

impl Default for LanBus {
    fn default() -> Self {
        Self::with_policy(BusPolicy::default())
    }
}

impl LanBus {
    pub fn new() -> Self {
        Self::default()
    }

    /// A bus with an explicit per-subscriber queue bound and lag limit.
    pub fn with_policy(policy: BusPolicy) -> Self {
        LanBus {
            inner: Arc::new(Mutex::new(BusInner::default())),
            hooks: Arc::new(HookSet::default()),
            policy,
        }
    }

    pub fn policy(&self) -> BusPolicy {
        self.policy
    }

    /// Subscribe to events of one document with a simulated one-way
    /// latency. Dropping the returned subscription unsubscribes.
    pub fn subscribe(&self, doc: DocId, latency: Duration) -> Subscription {
        let (tx, rx) = unbounded();
        let depth = Arc::new(AtomicUsize::new(0));
        let evicted = Arc::new(AtomicBool::new(false));
        let mut inner = self.inner.lock();
        let id = inner.next_sub;
        inner.next_sub += 1;
        inner.subscribers.insert(
            id,
            Subscriber {
                doc,
                latency,
                tx,
                depth: Arc::clone(&depth),
                lagged: 0,
                evicted: Arc::clone(&evicted),
            },
        );
        Subscription {
            id,
            doc,
            latency,
            rx,
            pending: Vec::new(),
            bus: self.clone(),
            depth,
            evicted,
        }
    }

    /// Broadcast an event to all subscribers of its document. The
    /// payload (including its `Vec<Effect>`) is allocated once, by the
    /// publisher, and shared: fan-out to N editors is N `Arc` clones, not
    /// N deep copies of the effect list.
    ///
    /// Never blocks on a consumer: a subscriber whose queue is at
    /// [`BusPolicy::capacity`] has the event dropped (counted), and one
    /// that has dropped more than [`BusPolicy::lag_limit`] events is
    /// evicted on the spot.
    pub fn publish(&self, event: Arc<DocEvent>) {
        let policy = self.policy;
        let mut inner = self.inner.lock();
        inner.published += 1;
        let now = Instant::now();
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut evicted = 0u64;
        inner.subscribers.retain(|_, sub| {
            if sub.doc != event.doc {
                return true;
            }
            if sub.depth.load(Ordering::Acquire) >= policy.capacity {
                sub.lagged += 1;
                dropped += 1;
                if sub.lagged > policy.lag_limit {
                    sub.evicted.store(true, Ordering::Release);
                    evicted += 1;
                    return false; // dropping `tx` disconnects the channel
                }
                return true;
            }
            let deliver_at = now + sub.latency;
            sub.depth.fetch_add(1, Ordering::AcqRel);
            // A closed channel means the subscription was dropped.
            if sub.tx.send((deliver_at, Arc::clone(&event))).is_ok() {
                delivered += 1;
                true
            } else {
                false
            }
        });
        inner.delivered += delivered;
        inner.dropped += dropped;
        inner.evicted += evicted;
        drop(inner);
        let hooks = Arc::clone(&self.hooks.0.lock());
        for hook in hooks.iter() {
            if !hook(&event) {
                let mut set = self.hooks.0.lock();
                Arc::make_mut(&mut set).retain(|h| !Arc::ptr_eq(h, hook));
            }
        }
    }

    /// Register a callback handed every published event (any document),
    /// on the publishing thread, after the subscribers' queues were fed
    /// and with no bus-wide lock held — so a hook may take its time
    /// encoding and pushing, and two documents' publishers never wait on
    /// each other inside it. This is how `tendax-net` fans a commit out to
    /// its TCP subscribers without a thread in between. The callback must
    /// not block on a consumer; returning `false` deregisters it.
    pub fn register_publish_hook(&self, hook: PublishHook) {
        Arc::make_mut(&mut self.hooks.0.lock()).push(Arc::new(hook));
    }

    /// Total events ever published (bus statistics).
    pub fn published_count(&self) -> u64 {
        self.inner.lock().published
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().subscribers.len()
    }

    /// Cumulative delivery/backpressure counters.
    pub fn stats(&self) -> TransportStats {
        let inner = self.inner.lock();
        TransportStats {
            published: inner.published,
            delivered: inner.delivered,
            dropped: inner.dropped,
            evicted: inner.evicted,
        }
    }

    fn unsubscribe(&self, id: u64) {
        self.inner.lock().subscribers.remove(&id);
    }
}

/// A receiver of document events, latency-gated.
#[derive(Debug)]
pub struct Subscription {
    id: u64,
    doc: DocId,
    latency: Duration,
    rx: Receiver<(Instant, Arc<DocEvent>)>,
    /// Messages received from the channel but not yet past their latency.
    pending: Vec<(Instant, Arc<DocEvent>)>,
    bus: LanBus,
    /// Shared with the bus: undelivered events in the channel.
    depth: Arc<AtomicUsize>,
    evicted: Arc<AtomicBool>,
}

impl Subscription {
    /// Pull everything currently in the channel into `pending`,
    /// releasing queue capacity as we go.
    fn drain_channel(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.pending.push(msg);
        }
    }

    /// Events whose simulated latency has elapsed, in publish order.
    pub fn poll(&mut self) -> Vec<Arc<DocEvent>> {
        self.drain_channel();
        let now = Instant::now();
        let mut ready = Vec::new();
        // Delivery preserves publish order: messages entered `pending` in
        // publish order and latency is constant per subscriber, so the
        // ready prefix is exactly what has "arrived".
        let mut keep = Vec::with_capacity(self.pending.len());
        let mut blocked = false;
        for (at, ev) in self.pending.drain(..) {
            if !blocked && at <= now {
                ready.push(ev);
            } else {
                blocked = true;
                keep.push((at, ev));
            }
        }
        self.pending = keep;
        ready
    }

    /// Wait until at least one event is deliverable or the timeout
    /// expires, then poll. No blind polling ticks: the wait blocks on
    /// the channel (a fresh publish wakes it immediately) for
    /// `min(deadline, earliest pending deliver_at)` — exactly as long
    /// as there can be nothing to deliver.
    pub fn poll_timeout(&mut self, timeout: Duration) -> Vec<Arc<DocEvent>> {
        let deadline = Instant::now() + timeout;
        loop {
            let ready = self.poll();
            if !ready.is_empty() {
                return ready;
            }
            let now = Instant::now();
            if now >= deadline {
                return ready;
            }
            let mut wake = deadline;
            if let Some(at) = self.pending.iter().map(|(at, _)| *at).min() {
                wake = wake.min(at);
            }
            let wait = wake.saturating_duration_since(now);
            match self.rx.recv_timeout(wait) {
                Ok(msg) => {
                    self.depth.fetch_sub(1, Ordering::AcqRel);
                    self.pending.push(msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // The bus is gone; nothing new can arrive. With
                    // nothing pending either there is nothing to wait
                    // for — return instead of sleeping out the timeout.
                    if self.pending.is_empty() {
                        return Vec::new();
                    }
                    // Sleep out the latency gate on what is pending.
                    std::thread::sleep(wait);
                }
            }
        }
    }

    /// Events queued but not yet deliverable (in flight on the "wire").
    pub fn in_flight(&mut self) -> usize {
        self.drain_channel();
        self.pending.len()
    }

    /// True once the bus evicted this subscription for lagging past
    /// [`BusPolicy::lag_limit`]. The event stream has a hole: refresh
    /// from the database and re-subscribe.
    pub fn lagged_out(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }

    pub fn doc(&self) -> DocId {
        self.doc
    }

    pub fn latency(&self) -> Duration {
        self.latency
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.bus.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(doc: u64, op: u64) -> Arc<DocEvent> {
        Arc::new(DocEvent {
            doc: DocId(doc),
            op: OpId(op),
            commit_ts: op,
            user: UserId(1),
            origin: SessionId(1),
            kind: "insert".into(),
            effects: vec![],
        })
    }

    #[test]
    fn zero_latency_delivery_is_immediate() {
        let bus = LanBus::new();
        let mut sub = bus.subscribe(DocId(1), Duration::ZERO);
        bus.publish(event(1, 10));
        bus.publish(event(1, 11));
        let got = sub.poll();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].op, OpId(10));
        assert_eq!(got[1].op, OpId(11));
        assert!(sub.poll().is_empty());
    }

    #[test]
    fn events_filtered_by_document() {
        let bus = LanBus::new();
        let mut sub1 = bus.subscribe(DocId(1), Duration::ZERO);
        let mut sub2 = bus.subscribe(DocId(2), Duration::ZERO);
        bus.publish(event(1, 10));
        assert_eq!(sub1.poll().len(), 1);
        assert!(sub2.poll().is_empty());
    }

    #[test]
    fn latency_gates_delivery() {
        let bus = LanBus::new();
        let mut sub = bus.subscribe(DocId(1), Duration::from_millis(30));
        bus.publish(event(1, 10));
        assert!(sub.poll().is_empty());
        assert_eq!(sub.in_flight(), 1);
        let got = sub.poll_timeout(Duration::from_millis(500));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn order_preserved_under_latency() {
        let bus = LanBus::new();
        let mut sub = bus.subscribe(DocId(1), Duration::from_millis(10));
        for i in 0..5 {
            bus.publish(event(1, i));
        }
        std::thread::sleep(Duration::from_millis(25));
        let got = sub.poll();
        let ops: Vec<u64> = got.iter().map(|e| e.op.0).collect();
        assert_eq!(ops, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fanout_shares_one_payload_across_subscribers() {
        use tendax_text::CharId;
        let bus = LanBus::new();
        let mut subs: Vec<Subscription> = (0..16)
            .map(|_| bus.subscribe(DocId(1), Duration::ZERO))
            .collect();
        bus.publish(Arc::new(DocEvent {
            effects: vec![Effect::Delete {
                char: CharId(7),
                by: UserId(1),
                ts: 1,
            }],
            ..(*event(1, 10)).clone()
        }));
        let received: Vec<Arc<DocEvent>> = subs.iter_mut().map(|s| s.poll().remove(0)).collect();
        // Every subscriber got a handle to the *same* allocation — the
        // effects vector was never copied per subscriber.
        for pair in received.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "fan-out must share one payload"
            );
        }
        assert_eq!(Arc::strong_count(&received[0]), 16);
    }

    #[test]
    fn poll_timeout_wakes_on_publish_without_spinning() {
        let bus = LanBus::new();
        let mut sub = bus.subscribe(DocId(1), Duration::ZERO);
        let publisher = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                bus.publish(event(1, 1));
            })
        };
        let start = Instant::now();
        let got = sub.poll_timeout(Duration::from_secs(5));
        publisher.join().unwrap();
        assert_eq!(got.len(), 1);
        // Delivered on the publish wake-up, nowhere near the timeout.
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// Regression: a disconnected channel with nothing pending used to
    /// sleep out the entire remaining timeout even though no event
    /// could ever arrive.
    #[test]
    fn poll_timeout_returns_immediately_when_bus_disconnected() {
        let bus = LanBus::new();
        let mut sub = bus.subscribe(DocId(1), Duration::ZERO);
        bus.unsubscribe(sub.id); // drops the sender: channel disconnected
        let start = Instant::now();
        let got = sub.poll_timeout(Duration::from_secs(5));
        assert!(got.is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "disconnected + empty pending must not sleep out the timeout"
        );
    }

    /// A hook sees every event, may call back into the bus (no bus lock
    /// is held around it), and leaves the set by returning `false`.
    #[test]
    fn publish_hook_gets_the_event_with_no_bus_lock_held() {
        use std::sync::atomic::AtomicU64;
        let bus = LanBus::new();
        let seen = Arc::new(AtomicU64::new(0));
        let (bus2, seen2) = (bus.clone(), Arc::clone(&seen));
        bus.register_publish_hook(Box::new(move |ev| {
            seen2.fetch_add(ev.op.0, Ordering::Relaxed);
            // Both would deadlock under the subscriber or hook lock.
            let _ = bus2.subscriber_count();
            bus2.register_publish_hook(Box::new(|_| false));
            ev.op != OpId(2)
        }));
        for op in 1..=3 {
            bus.publish(event(1, op));
        }
        // Deregistered by the `false` it returned for op 2.
        assert_eq!(seen.load(Ordering::Relaxed), 1 + 2);
        // Hooks never count as deliveries.
        assert_eq!(bus.stats().delivered, 0);
    }

    #[test]
    fn dropping_subscription_unsubscribes() {
        let bus = LanBus::new();
        let sub = bus.subscribe(DocId(1), Duration::ZERO);
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        bus.publish(event(1, 1)); // must not panic; lazily cleaned
        assert_eq!(bus.subscriber_count(), 0);
        assert_eq!(bus.published_count(), 1);
    }

    /// Regression (unbounded fan-out queues): a subscriber that never
    /// polls used to grow its channel without bound — one stalled editor
    /// could OOM the broadcast path. The queue is now capped at
    /// [`BusPolicy::capacity`]; overflow is dropped and counted.
    #[test]
    fn stalled_subscriber_queue_is_bounded() {
        let bus = LanBus::with_policy(BusPolicy {
            capacity: 4,
            lag_limit: 1_000_000, // no eviction in this test
        });
        let mut stalled = bus.subscribe(DocId(1), Duration::ZERO);
        for i in 0..100 {
            bus.publish(event(1, i));
        }
        // Only `capacity` events were ever queued; the rest were dropped.
        assert_eq!(stalled.in_flight(), 4);
        let stats = bus.stats();
        assert_eq!(stats.published, 100);
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.dropped, 96);
        assert_eq!(stats.evicted, 0);
        // The subscriber is still connected (under the lag limit) and
        // receives the head-of-queue prefix it did get.
        let got = stalled.poll();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].op, OpId(0));
        assert!(!stalled.lagged_out());
    }

    /// A subscriber lagging past [`BusPolicy::lag_limit`] is evicted:
    /// the publisher stops paying for it, and the subscription observes
    /// `lagged_out` so it can refresh + re-subscribe.
    #[test]
    fn lagging_subscriber_is_evicted() {
        let bus = LanBus::with_policy(BusPolicy {
            capacity: 2,
            lag_limit: 3,
        });
        let stalled = bus.subscribe(DocId(1), Duration::ZERO);
        let mut healthy = bus.subscribe(DocId(1), Duration::ZERO);
        for i in 0..20 {
            bus.publish(event(1, i));
            healthy.poll(); // keeps its own queue empty
        }
        // 2 queued, then 3 tolerated drops, then eviction.
        assert!(stalled.lagged_out());
        assert_eq!(bus.subscriber_count(), 1);
        let stats = bus.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.dropped, 4); // lag_limit + the final straw
                                      // The healthy subscriber saw everything.
        assert!(!healthy.lagged_out());
    }

    /// Catching up un-stalls a subscriber: capacity freed by polling is
    /// available to later publishes.
    #[test]
    fn draining_frees_queue_capacity() {
        let bus = LanBus::with_policy(BusPolicy {
            capacity: 2,
            lag_limit: 1_000_000,
        });
        let mut sub = bus.subscribe(DocId(1), Duration::ZERO);
        bus.publish(event(1, 0));
        bus.publish(event(1, 1));
        bus.publish(event(1, 2)); // dropped: queue full
        assert_eq!(sub.poll().len(), 2);
        bus.publish(event(1, 3)); // fits again
        let got = sub.poll();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].op, OpId(3));
        assert_eq!(bus.stats().dropped, 1);
    }
}
