//! One site's copy of a document, kept current from the operation stream.
//!
//! Every site that edits a document holds a [`Replica`]: a [`DocHandle`]
//! (chain + cache), a reorder buffer for remote operations whose
//! dependencies have not arrived, and the optimistic retry protocol its
//! own edits run under. An editor session's [`crate::EditorDoc`] owns one
//! and feeds it by polling its subscription; the server's live document
//! ([`crate::live`]) shares one among its network connections and takes
//! no events at all: every commit on the document is folded into it under
//! the document's lock. The retry/anchor loop exists here once, for both;
//! each attempt of it is one commit under that lock, and its backoff and
//! catch-up run outside it.

use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_text::{CharId, DocHandle, EditReceipt, Result, TextError};

use crate::bus::{DocEvent, SessionId, Subscription};
use crate::server::CollabServer;
use crate::session::EditorStats;

/// How many times an edit is retried after losing a commit race before
/// [`TextError::RetriesExhausted`] is surfaced. Each retry re-syncs from
/// the bus and database, after a jittered exponential backoff.
pub(crate) const EDIT_RETRIES: usize = 16;

/// Backoff ceiling before retry 1, doubling each retry up to
/// `BACKOFF_BASE_US << BACKOFF_MAX_SHIFT` (20µs … 2.56ms).
const BACKOFF_BASE_US: u64 = 20;
const BACKOFF_MAX_SHIFT: u32 = 7;

/// Buffered events past this many force a refresh instead of waiting for
/// dependencies that will likely never arrive.
const MAX_REORDER: usize = 64;

/// Jittered exponential backoff delay before retry `attempt` (≥ 1).
///
/// N sessions hammering one hot position re-collide in lockstep if they
/// all retry immediately; the jitter decorrelates them. The jitter is
/// *deterministic* — seeded from the session id and attempt number, no
/// ambient clock or process-global RNG — so retry schedules are
/// reproducible in tests. Uniform in `[ceiling/2, ceiling]`, ceiling
/// doubling per attempt and capped.
fn backoff_delay(session: SessionId, attempt: usize) -> Duration {
    debug_assert!(attempt >= 1);
    let ceil_us = BACKOFF_BASE_US << (attempt as u32 - 1).min(BACKOFF_MAX_SHIFT);
    let seed = session.0 ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = SmallRng::seed_from_u64(seed);
    Duration::from_micros(rng.gen_range(ceil_us / 2..=ceil_us))
}

/// Who an operation is performed for: the session whose retries are
/// counted and whose id the broadcast carries as its origin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Actor<'a> {
    pub(crate) server: &'a CollabServer,
    pub(crate) session: SessionId,
}

/// A caller-supplied position snapshotted against the local view, so it
/// can be re-resolved after remote edits land (see
/// [`Replica::perform_at`]).
#[derive(Debug, Clone, Copy)]
enum PosAnchor {
    /// Position 0: always the document start.
    Start,
    /// After this character, with the original position as a fallback if
    /// the anchor is purged from the chain.
    After(CharId, usize),
    /// Out of range when captured; passed through untransformed.
    Raw(usize),
}

#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) handle: DocHandle,
    /// The event stream an editor's replica is fed from; a live copy,
    /// which takes no events, has none.
    sub: Option<Subscription>,
    /// Events whose dependencies have not arrived yet (publication order
    /// on the bus can differ slightly from commit order).
    reorder: Vec<Arc<DocEvent>>,
    pub(crate) stats: EditorStats,
}

impl Replica {
    pub(crate) fn new(handle: DocHandle, sub: Option<Subscription>) -> Self {
        Replica {
            handle,
            sub,
            reorder: Vec::new(),
            stats: EditorStats::default(),
        }
    }

    /// Discard the view and rebuild it from the database, which
    /// supersedes every buffered event.
    pub(crate) fn refresh(&mut self) -> Result<()> {
        self.handle.refresh()?;
        self.reorder.clear();
        self.stats.refreshes += 1;
        Ok(())
    }

    /// Pull what the subscription has (waiting up to `wait` for the
    /// first event) and integrate it; echoes of `who`'s own operations
    /// are skipped. Returns how many events were applied.
    pub(crate) fn catch_up(&mut self, who: Actor<'_>, wait: Option<Duration>) -> usize {
        let Some(sub) = self.sub.as_mut() else {
            return 0;
        };
        // A bus that evicted this subscriber for lagging leaves a
        // hole in the event stream: re-subscribe so future events flow
        // again, and resynchronize from the database (which supersedes
        // everything the old stream would have said).
        let evicted = sub.lagged_out();
        if evicted {
            *sub = who.server.transport().subscribe(sub.doc(), sub.latency());
        }
        let events = match wait {
            None => sub.poll(),
            Some(timeout) => sub.poll_timeout(timeout),
        };
        if evicted && self.refresh().is_ok() {
            self.stats.resyncs += 1;
        }
        self.integrate(events, |ev| ev.origin == who.session)
    }

    /// Apply remote events to the view.
    ///
    /// Publication happens after commit, outside the commit lock, so a
    /// later operation can occasionally arrive before the one it depends
    /// on. Events whose dependencies are missing are buffered and retried
    /// as soon as anything new applies; a buffer that cannot drain (e.g.
    /// the dependency's event was published before this replica
    /// subscribed) falls back to a full refresh.
    pub(crate) fn integrate(
        &mut self,
        events: impl IntoIterator<Item = Arc<DocEvent>>,
        is_echo: impl Fn(&DocEvent) -> bool,
    ) -> usize {
        let mut applied = 0;
        let floor = self.handle.synced_ts();
        for ev in events {
            if is_echo(&ev) {
                continue; // our own operation, folded in when it committed
            }
            if ev.commit_ts <= floor {
                continue; // already reflected by the view
            }
            if !self.handle.effects_applicable(&ev.effects) {
                self.stats.events_reordered += 1;
            }
            self.reorder.push(ev);
        }
        // A refresh may have superseded buffered events.
        self.reorder.retain(|ev| ev.commit_ts > floor);
        // Drain the reorder buffer to a fixpoint: each successful apply
        // may unblock buffered dependents.
        let mut stale = false;
        'drain: loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.reorder.len() {
                if self.handle.effects_applicable(&self.reorder[i].effects) {
                    let ev = self.reorder.remove(i);
                    match self.handle.apply_remote(&ev.effects) {
                        Ok(()) => {
                            applied += 1;
                            self.stats.events_applied += 1;
                            progressed = true;
                        }
                        Err(_) => {
                            // StaleCache: the chain rejected an effect the
                            // cache vouched for — the view has drifted.
                            // Fall back to a refresh, which supersedes
                            // every buffered event (the retry).
                            stale = true;
                            break 'drain;
                        }
                    }
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
        // Unresolvable holes (dependency will never arrive on this
        // subscription) or an incoherent cache: resynchronize from the
        // database, superseding everything still buffered.
        if stale || self.reorder.len() > MAX_REORDER {
            let buffered = self.reorder.len();
            if self.refresh().is_ok() {
                applied += buffered;
            }
        }
        applied
    }

    /// Run `f` under the optimistic retry protocol: catch up, try, and on
    /// a transient conflict back off, catch up, rebuild the view from the
    /// database and try again.
    pub(crate) fn retry<T>(
        &mut self,
        who: Actor<'_>,
        mut f: impl FnMut(&mut DocHandle) -> Result<T>,
    ) -> Result<T> {
        self.catch_up(who, None);
        let mut last = None;
        for attempt in 0..EDIT_RETRIES {
            if attempt > 0 {
                self.stats.retries += 1;
                who.server.note_retry(who.session);
                std::thread::sleep(backoff_delay(who.session, attempt));
                self.catch_up(who, None);
                self.refresh()?;
            }
            match f(&mut self.handle) {
                Ok(done) => return Ok(done),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(TextError::RetriesExhausted {
            attempts: EDIT_RETRIES,
            last: last.map(Box::new),
        })
    }

    /// [`Replica::retry`] for an editing operation addressed by a visible
    /// position, up to and including its commit. The position is captured
    /// as a character anchor *before* the pre-edit catch-up and
    /// re-resolved against the view on every attempt, so remote edits
    /// applied in between (or by the retry refreshes) move the operation
    /// with the text the caller was pointing at. Returns the position the
    /// operation finally ran at, its receipt and its broadcast — handed
    /// back, not sent: commit and broadcast are two steps, and what goes
    /// between them is the caller's business.
    pub(crate) fn perform_at(
        &mut self,
        who: Actor<'_>,
        kind: &str,
        pos: usize,
        mut f: impl FnMut(&mut DocHandle, usize) -> Result<EditReceipt>,
    ) -> Result<(usize, EditReceipt, Option<DocEvent>)> {
        let anchor = self.capture_anchor(pos);
        let mut at = pos;
        let receipt = self.retry(who, |h| {
            at = Self::resolve_anchor(h, &anchor);
            f(h, at)
        })?;
        self.stats.ops += 1;
        let event = self.event(who.session, kind, &receipt);
        Ok((at, receipt, event))
    }

    /// Snapshot `pos` as an anchor in the current view.
    fn capture_anchor(&self, pos: usize) -> PosAnchor {
        if pos == 0 {
            PosAnchor::Start
        } else {
            match self.handle.char_at(pos - 1) {
                Some(id) => PosAnchor::After(id, pos),
                // Beyond the caller's view: pass through unchanged so the
                // handle reports `InvalidPosition` exactly as it would
                // have without anchoring.
                None => PosAnchor::Raw(pos),
            }
        }
    }

    /// Map a captured anchor back to a position in the current view.
    fn resolve_anchor(handle: &DocHandle, anchor: &PosAnchor) -> usize {
        match *anchor {
            PosAnchor::Start => 0,
            PosAnchor::After(id, fallback) => handle
                .caret_after(id)
                // Anchor purged from the chain entirely: clamp, the same
                // recovery the cursor uses.
                .unwrap_or_else(|| fallback.min(handle.len())),
            PosAnchor::Raw(pos) => pos,
        }
    }

    /// The broadcast of a committed operation; none if it changed no
    /// character.
    pub(crate) fn event(
        &self,
        origin: SessionId,
        kind: &str,
        receipt: &EditReceipt,
    ) -> Option<DocEvent> {
        (!receipt.effects.is_empty()).then(|| DocEvent {
            doc: self.handle.doc(),
            op: receipt.op,
            commit_ts: receipt.commit_ts,
            user: self.handle.user(),
            origin,
            kind: kind.to_owned(),
            effects: receipt.effects.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..=EDIT_RETRIES {
            let a = backoff_delay(SessionId(7), attempt);
            let b = backoff_delay(SessionId(7), attempt);
            assert_eq!(a, b, "same session+attempt must give the same delay");
            let ceil = BACKOFF_BASE_US << (attempt as u32 - 1).min(BACKOFF_MAX_SHIFT);
            let us = a.as_micros() as u64;
            assert!(
                us >= ceil / 2 && us <= ceil,
                "attempt {attempt}: {us}µs outside [{}, {ceil}]",
                ceil / 2
            );
        }
        // The ceiling grows then caps: the last delay is bounded.
        let last = backoff_delay(SessionId(7), EDIT_RETRIES);
        assert!(last <= Duration::from_micros(BACKOFF_BASE_US << BACKOFF_MAX_SHIFT));
    }

    #[test]
    fn backoff_decorrelates_sessions() {
        // Two lockstep sessions must not share a retry schedule — that is
        // the livelock the jitter exists to break. With 16 attempts the
        // chance of all-equal delays by luck is negligible.
        let differs = (1..=EDIT_RETRIES)
            .any(|a| backoff_delay(SessionId(1), a) != backoff_delay(SessionId(2), a));
        assert!(differs, "sessions retry in lockstep");
    }
}
