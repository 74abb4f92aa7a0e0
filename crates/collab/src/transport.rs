//! The transport abstraction of the collaboration layer.
//!
//! Committed operations reach other editors through a [`Transport`]: the
//! in-process [`crate::bus::LanBus`] is one implementation (the EDBT
//! demo's simulated LAN), and `tendax-net`'s TCP server pumps the same
//! event stream over real sockets. Everything above this trait —
//! sessions, awareness, the editor retry protocol — is transport
//! agnostic, which is what lets one `CollabServer` serve in-process
//! editors and remote connections at the same time.

use std::sync::Arc;
use std::time::Duration;

use tendax_text::DocId;

use crate::bus::DocEvent;

/// Delivery/backpressure counters of a transport, cumulative since
/// creation.
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

/// A broadcast channel for committed document events.
///
/// Implementations must be cheap to share (`Arc` inside) and must never
/// block `publish` on a slow consumer: bounded per-subscriber queues with
/// an explicit drop/evict policy are the contract, not backpressure onto
/// the committer.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Subscribe to one document's event stream with a simulated one-way
    /// latency (`Duration::ZERO` for real transports). Dropping the
    /// returned source unsubscribes.
    fn connect(&self, doc: DocId, latency: Duration) -> Box<dyn EventSource>;

    /// Broadcast one committed operation to all subscribers of its
    /// document.
    fn publish(&self, event: DocEvent);

    /// Number of live subscriptions.
    fn subscriber_count(&self) -> usize;

    /// Cumulative delivery/backpressure counters.
    fn stats(&self) -> TransportStats;

    /// Register a callback handed every published event (any document),
    /// on the publishing thread, after the subscribers' queues were fed
    /// and with no transport-wide lock held — so a hook may take its
    /// time encoding and pushing, and two documents' publishers never
    /// wait on each other inside it. This is how `tendax-net` fans a
    /// commit out to its TCP subscribers without a thread in between.
    /// The callback must not block on a consumer; returning `false`
    /// deregisters it.
    fn register_publish_hook(&self, hook: PublishHook);
}

/// See [`Transport::register_publish_hook`].
pub type PublishHook = Box<dyn Fn(&Arc<DocEvent>) -> bool + Send + Sync>;

/// The receiving end of one document subscription.
pub trait EventSource: Send + std::fmt::Debug {
    /// Deliverable events, in publish order. Non-blocking.
    fn poll(&mut self) -> Vec<Arc<DocEvent>>;

    /// Wait until at least one event is deliverable or the timeout
    /// expires, then poll.
    fn poll_timeout(&mut self, timeout: Duration) -> Vec<Arc<DocEvent>>;

    /// Events queued but not yet deliverable.
    fn in_flight(&mut self) -> usize;

    /// True once the transport evicted this subscriber for lagging: the
    /// stream has a hole and the consumer must resynchronize from the
    /// database (refresh / snapshot) and re-subscribe.
    fn lagged_out(&self) -> bool;

    /// The document this source is subscribed to.
    fn doc(&self) -> DocId;

    /// The simulated one-way latency of this subscription.
    fn latency(&self) -> Duration;
}
