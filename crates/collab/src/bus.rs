//! The event bus: where a committed operation is published.
//!
//! The EDBT demo ran editors on several machines on a LAN; committed
//! transactions were pushed to every connected editor so "everything
//! which is typed appears within the editor as soon as [it is] stored
//! persistently". In-process editors need no push: they are views of the
//! server's one copy of each document ([`crate::live`]), which has every
//! editor's commit before the document's lock is let go. What remains is
//! the push to the far end of a wire, and that is a publish hook:
//! [`LanBus::publish`] hands each event to every registered hook on the
//! publishing thread, a document's events in commit order (its outbox,
//! [`crate::live`]); `tendax-net` encodes each once and queues it for
//! every TCP subscriber, under that crate's slow-consumer policy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// The session that performed the edit.
    pub origin: SessionId,
    pub kind: EventKind,
    pub effects: Vec<Effect>,
}

/// What kind of edit an event reports. The editor's own kinds are a
/// one-byte code; a kind only a caller names
/// ([`crate::LiveEditor::with_handle`], or an event off the wire) is
/// carried by its name. Either way [`EventKind::as_str`] is the name the
/// wire carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    Insert,
    Delete,
    Paste,
    Style,
    Undo,
    Redo,
    Move,
    Note,
    Named(Box<str>),
}

impl EventKind {
    /// The kind named `name`: coded if it is one of the editor's.
    pub fn named(name: &str) -> EventKind {
        Self::coded(name).unwrap_or_else(|| EventKind::Named(name.into()))
    }

    /// The editor's kind named `name`, if it is one.
    fn coded(name: &str) -> Option<EventKind> {
        Some(match name {
            "insert" => EventKind::Insert,
            "delete" => EventKind::Delete,
            "paste" => EventKind::Paste,
            "style" => EventKind::Style,
            "undo" => EventKind::Undo,
            "redo" => EventKind::Redo,
            "move" => EventKind::Move,
            "note" => EventKind::Note,
            _ => return None,
        })
    }

    /// The kind's name.
    pub fn as_str(&self) -> &str {
        match self {
            EventKind::Insert => "insert",
            EventKind::Delete => "delete",
            EventKind::Paste => "paste",
            EventKind::Style => "style",
            EventKind::Undo => "undo",
            EventKind::Redo => "redo",
            EventKind::Move => "move",
            EventKind::Note => "note",
            EventKind::Named(name) => name,
        }
    }
}

impl From<String> for EventKind {
    fn from(name: String) -> EventKind {
        Self::coded(&name).unwrap_or_else(|| EventKind::Named(name.into_boxed_str()))
    }
}

impl DocEvent {
    /// The bytes of this event's payload in `tendax-net`'s codec — its
    /// `Event` frame less the 5-byte frame header, and what it adds to a
    /// `Delta`: five ids, the kind, the effect count and each effect (that
    /// crate's codec tests pin the two together).
    pub fn wire_len(&self) -> usize {
        let opt = |some: bool, len: usize| if some { 1 + len } else { 1 };
        let effect = |e: &Effect| match e {
            Effect::Insert { prev, external, .. } => {
                53 + opt(prev.is_some(), 8)
                    + opt(external.is_some(), 4)
                    + external.as_ref().map_or(0, String::len)
            }
            Effect::Delete { .. } | Effect::SetStyle { .. } => 25,
            Effect::Undelete { .. } => 9,
        };
        let kind = self.kind.as_str().len();
        5 * 8 + 4 + kind + 4 + self.effects.iter().map(effect).sum::<usize>()
    }
}

/// Counters of a bus, cumulative since creation. The bus keeps no
/// queues, so `delivered`, `dropped` and `evicted` read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Events handed to `publish`.
    pub published: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub evicted: u64,
}

/// See [`LanBus::register_publish_hook`].
pub type PublishHook = Box<dyn Fn(&Arc<DocEvent>) -> bool + Send + Sync>;

/// Publish hooks (see [`LanBus::register_publish_hook`]). The list is
/// shared copy-on-write: a publisher clones the `Arc` and calls the hooks
/// with no lock held.
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
#[derive(Debug, Clone, Default)]
pub struct LanBus {
    hooks: Arc<HookSet>,
    published: Arc<AtomicU64>,
}

impl LanBus {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand an event to every hook. The payload (including its
    /// `Vec<Effect>`) is allocated once, by the publisher, and shared:
    /// fan-out to N hooks is N borrows of one `Arc`, not N deep copies of
    /// the effect list.
    pub fn publish(&self, event: Arc<DocEvent>) {
        self.published.fetch_add(1, Ordering::Relaxed);
        let hooks = Arc::clone(&self.hooks.0.lock());
        for hook in hooks.iter() {
            if !hook(&event) {
                let mut set = self.hooks.0.lock();
                Arc::make_mut(&mut set).retain(|h| !Arc::ptr_eq(h, hook));
            }
        }
    }

    /// Register a callback handed every published event (any document;
    /// one document's in commit order), on the publishing thread, before
    /// `publish` returns and with no lock held — so a hook may take its
    /// time encoding and pushing, and two documents' publishers never
    /// wait on each other inside it: `tendax-net` fans a commit out to its
    /// TCP subscribers so. The callback must not block on a consumer; one
    /// that panics loses that event. Returning `false` deregisters it.
    pub fn register_publish_hook(&self, hook: PublishHook) {
        Arc::make_mut(&mut self.hooks.0.lock()).push(Arc::new(hook));
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            published: self.published.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
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
            kind: EventKind::Insert,
            effects: vec![],
        })
    }

    /// A hook has each event before `publish` returns, in publish order.
    #[test]
    fn zero_latency_delivery_is_immediate() {
        let bus = LanBus::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        bus.register_publish_hook(Box::new(move |ev| {
            log.lock().push(ev.op);
            true
        }));
        bus.publish(event(1, 10));
        assert_eq!(*seen.lock(), [OpId(10)]);
        bus.publish(event(1, 11));
        assert_eq!(*seen.lock(), [OpId(10), OpId(11)]);
    }

    #[test]
    fn fanout_shares_one_payload_across_subscribers() {
        use tendax_text::CharId;
        let bus = LanBus::new();
        let received = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..16 {
            let received = Arc::clone(&received);
            bus.register_publish_hook(Box::new(move |ev| {
                received.lock().push(Arc::clone(ev));
                true
            }));
        }
        bus.publish(Arc::new(DocEvent {
            effects: vec![Effect::Delete {
                char: CharId(7),
                by: UserId(1),
                ts: 1,
            }],
            ..(*event(1, 10)).clone()
        }));
        let received = received.lock();
        assert_eq!(received.len(), 16);
        // Every hook got a handle to the *same* allocation — the effects
        // vector was never copied per subscriber.
        for pair in received.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "fan-out must share one payload"
            );
        }
    }

    /// A hook may call back into the bus: no bus lock is held around it.
    #[test]
    fn publish_hook_gets_the_event_with_no_bus_lock_held() {
        let bus = LanBus::new();
        let seen = Arc::new(AtomicU64::new(0));
        let (bus2, seen2) = (bus.clone(), Arc::clone(&seen));
        bus.register_publish_hook(Box::new(move |ev| {
            seen2.fetch_add(ev.op.0, Ordering::Relaxed);
            // Would deadlock under the hook lock.
            bus2.register_publish_hook(Box::new(|_| false));
            true
        }));
        bus.publish(event(1, 1));
        bus.publish(event(1, 2));
        assert_eq!(seen.load(Ordering::Relaxed), 1 + 2);
        // Hooks never count as deliveries.
        assert_eq!(bus.stats().delivered, 0);
    }

    /// A hook unsubscribes by returning `false`: it gets no later event,
    /// and the bus still counts every publication.
    #[test]
    fn dropping_subscription_unsubscribes() {
        let bus = LanBus::new();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        bus.register_publish_hook(Box::new(move |ev| {
            seen2.fetch_add(ev.op.0, Ordering::Relaxed);
            ev.op != OpId(2)
        }));
        for op in 1..=3 {
            bus.publish(event(1, op));
        }
        assert_eq!(seen.load(Ordering::Relaxed), 1 + 2);
        assert_eq!(bus.stats().published, 3);
    }
}
