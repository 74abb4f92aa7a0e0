//! Client-side replica of a document, maintained from `Snapshot` and
//! `Event` frames.
//!
//! The mirror keeps the *full* character chain — tombstones included —
//! because committed effects address characters by id and may anchor an
//! insert on a deleted character.
//!
//! ## Ordering
//!
//! Events are published to the transport *after* their transaction
//! commits, outside the commit lock, so two concurrent editors can put
//! their events on the wire out of commit-timestamp order. The mirror
//! therefore cannot simply replay arrival order; it integrates each
//! insert the way the server's chain would have:
//!
//! * applying commits in ascending `commit_ts`, every insert lands
//!   immediately after its anchor, so among siblings sharing an anchor
//!   the *later* commit sits closer to the anchor;
//! * the mirror reproduces that final order for *any* arrival order by
//!   walking forward from the anchor and skipping siblings (and their
//!   subtrees) whose commit is newer than the incoming insert's.
//!
//! This is the classical RGA integration rule with `commit_ts` as the
//! precedence; given that every anchor exists before use (enforced by
//! buffering events until their dependencies arrive), any interleaving
//! converges to the server's chain. Deletes, undeletes and restyles are
//! last-writer-wins on the character, guarded by the commit timestamp.
//!
//! Characters loaded from a snapshot carry no anchor/commit metadata,
//! but they never need it: anything in a snapshot committed at or below
//! the snapshot's timestamp, so it always loses precedence to an event
//! applied on top (events at or below the snapshot are skipped).
//!
//! When the dependency buffer grows past a bound the mirror gives up
//! and flags itself for a resync — the client then requests a fresh
//! `Snapshot`.

use std::collections::{BTreeMap, HashSet};

use tendax_text::Effect;

use crate::error::Result;
use crate::protocol::{SnapshotReader, WireChar, WireEvent};

/// Buffered events past this many force a resync instead of waiting for
/// dependencies that will likely never arrive.
const MAX_BUFFERED: usize = 64;

/// Where a mirrored character was anchored when it was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// Loaded from a snapshot: anchor unknown (and never needed).
    Unknown,
    /// Inserted at the document head.
    Head,
    /// Inserted after this character id.
    Char(u64),
}

/// One character of the replica plus the integration metadata.
#[derive(Debug, Clone)]
struct MirrorChar {
    id: u64,
    ch: char,
    deleted: bool,
    style: u64,
    anchor: Anchor,
    /// Commit timestamp of the insert (0 for snapshot-loaded chars).
    ts: u64,
    /// Commit timestamp of the last applied delete/undelete.
    flag_ts: u64,
    /// Commit timestamp of the last applied restyle.
    style_ts: u64,
}

/// A client-side replica of one document.
#[derive(Debug)]
pub struct MirrorDoc {
    doc: u64,
    /// Chain order, tombstones included.
    chars: Vec<MirrorChar>,
    /// Ids present in `chars`, for O(1) membership checks.
    ids: HashSet<u64>,
    /// The last inserted character and its position. Typing runs anchor
    /// each character on the previous one, so this turns the common
    /// anchor lookup into O(1); it stays valid because only inserts move
    /// positions and every insert refreshes it.
    last_insert: Option<(u64, usize)>,
    /// Commit timestamp of the last loaded snapshot: events at or below
    /// are already reflected and silently skipped.
    baseline: u64,
    /// Highest commit timestamp reflected in the replica.
    synced_ts: u64,
    /// Events waiting for their dependencies, keyed by (commit_ts, op).
    buffered: BTreeMap<(u64, u64), WireEvent>,
    needs_resync: bool,
    /// Events applied since construction (for stats/tests).
    applied: u64,
}

impl MirrorDoc {
    pub fn new(doc: u64, synced_ts: u64, chars: Vec<WireChar>) -> Self {
        let mut m = MirrorDoc::empty(doc, synced_ts, chars.len());
        for c in chars {
            m.push_snapshot_char(c);
        }
        m
    }

    /// Decode a `Snapshot` payload straight into a replica — each
    /// character goes from the wire bytes into its final slot. A payload
    /// that fails to decode yields the typed error and no replica.
    pub fn from_snapshot_payload(payload: &[u8]) -> Result<Self> {
        let mut snap = SnapshotReader::new(payload)?;
        let mut m = MirrorDoc::empty(snap.doc, snap.synced_ts, snap.remaining_hint());
        while let Some(c) = snap.next_char()? {
            m.push_snapshot_char(c);
        }
        Ok(m)
    }

    fn empty(doc: u64, synced_ts: u64, capacity: usize) -> Self {
        MirrorDoc {
            doc,
            chars: Vec::with_capacity(capacity),
            ids: HashSet::with_capacity(capacity),
            last_insert: None,
            baseline: synced_ts,
            synced_ts,
            buffered: BTreeMap::new(),
            needs_resync: false,
            applied: 0,
        }
    }

    fn push_snapshot_char(&mut self, w: WireChar) {
        self.ids.insert(w.id);
        self.chars.push(MirrorChar {
            id: w.id,
            ch: w.ch,
            deleted: w.deleted,
            style: w.style,
            anchor: Anchor::Unknown,
            ts: 0,
            flag_ts: 0,
            style_ts: 0,
        });
    }

    pub fn doc(&self) -> u64 {
        self.doc
    }

    pub fn synced_ts(&self) -> u64 {
        self.synced_ts
    }

    pub fn needs_resync(&self) -> bool {
        self.needs_resync
    }

    pub fn applied(&self) -> u64 {
        self.applied
    }

    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Visible text (tombstones skipped).
    pub fn text(&self) -> String {
        self.chars
            .iter()
            .filter(|c| !c.deleted)
            .map(|c| c.ch)
            .collect()
    }

    /// Visible length in characters.
    pub fn len(&self) -> usize {
        self.chars.iter().filter(|c| !c.deleted).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace the replica's contents with those of `fresh`, a replica
    /// just built from a snapshot of the same document (subscribe again
    /// or resync); events buffered here that the snapshot does not cover
    /// are kept.
    pub fn reload(&mut self, fresh: MirrorDoc) {
        self.chars = fresh.chars;
        self.ids = fresh.ids;
        self.last_insert = None;
        self.baseline = fresh.synced_ts;
        self.synced_ts = fresh.synced_ts;
        self.needs_resync = false;
        // Anything the snapshot already covers is obsolete; newer events
        // may now be applicable.
        self.buffered.retain(|(ts, _), _| *ts > fresh.synced_ts);
        self.drain();
    }

    /// Ingest one committed event. Returns `true` if the mirror advanced
    /// (the event or previously buffered ones were applied).
    pub fn apply_event(&mut self, ev: WireEvent) -> bool {
        if self.needs_resync {
            return false;
        }
        if ev.commit_ts <= self.baseline {
            // Already covered by the snapshot.
            return false;
        }
        self.buffered.insert((ev.commit_ts, ev.op), ev);
        let advanced = self.drain();
        if self.buffered.len() > MAX_BUFFERED {
            self.needs_resync = true;
        }
        advanced
    }

    /// Apply buffered events in commit order while their dependencies
    /// are satisfied.
    fn drain(&mut self) -> bool {
        let mut advanced = false;
        while let Some((&key, ev)) = self.buffered.iter().next() {
            if !self.applicable(ev) {
                break;
            }
            let ev = self.buffered.remove(&key).unwrap();
            for e in &ev.effects {
                self.apply_effect(e, ev.commit_ts);
            }
            self.synced_ts = self.synced_ts.max(ev.commit_ts);
            self.applied += 1;
            advanced = true;
        }
        advanced
    }

    fn index_of(&self, id: u64) -> Option<usize> {
        self.chars.iter().position(|c| c.id == id)
    }

    /// All referenced characters exist, or are introduced earlier in the
    /// same event.
    fn applicable(&self, ev: &WireEvent) -> bool {
        let mut introduced: HashSet<u64> = HashSet::new();
        for e in &ev.effects {
            let known = |id: u64| introduced.contains(&id) || self.ids.contains(&id);
            match e {
                Effect::Insert { char, prev, .. } => {
                    if let Some(p) = prev {
                        if !known(p.0) {
                            return false;
                        }
                    }
                    introduced.insert(char.0);
                }
                Effect::Delete { char, .. }
                | Effect::Undelete { char }
                | Effect::SetStyle { char, .. } => {
                    if !known(char.0) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Chain position of a character's anchor: -1 for the head,
    /// `isize::MIN` for "unknown or missing" (which always terminates an
    /// integration scan — see `integrate_insert`).
    fn anchor_pos(&self, anchor: Anchor) -> isize {
        match anchor {
            Anchor::Unknown => isize::MIN,
            Anchor::Head => -1,
            Anchor::Char(id) => match self.index_of(id) {
                Some(i) => i as isize,
                None => isize::MIN,
            },
        }
    }

    /// Place a newly arrived insert where commit-order application would
    /// have put it, regardless of arrival order.
    ///
    /// Scanning forward from the anchor: a character anchored *before*
    /// our anchor means we have left the anchor's subtree; a sibling
    /// (same anchor) with an older commit loses precedence and we slot
    /// in front of it; a sibling with a newer commit keeps its spot and
    /// we keep walking (its descendants follow it and are skipped by the
    /// same rule). Snapshot-loaded characters have unknown anchors and
    /// commit 0: they always terminate the scan, which is correct —
    /// their commit is at or below the snapshot baseline, so they lose
    /// precedence to any event applied on top of it.
    fn integrate_insert(&mut self, id: u64, ch: char, style: u64, p_pos: isize, ev_ts: u64) {
        let mut i = (p_pos + 1) as usize;
        while i < self.chars.len() {
            let c = &self.chars[i];
            let a_pos = self.anchor_pos(c.anchor);
            if a_pos < p_pos {
                break;
            }
            if a_pos == p_pos && (c.ts, c.id) < (ev_ts, id) {
                break;
            }
            i += 1;
        }
        self.chars.insert(
            i,
            MirrorChar {
                id,
                ch,
                deleted: false,
                style,
                anchor: if p_pos < 0 {
                    Anchor::Head
                } else {
                    Anchor::Char(self.chars[p_pos as usize].id)
                },
                ts: ev_ts,
                flag_ts: 0,
                style_ts: 0,
            },
        );
        self.ids.insert(id);
        self.last_insert = Some((id, i));
    }

    fn apply_effect(&mut self, e: &Effect, ev_ts: u64) {
        match e {
            Effect::Insert {
                char,
                prev,
                ch,
                style,
                ..
            } => {
                // Idempotency: re-delivery of an applied event.
                if self.ids.contains(&char.0) {
                    return;
                }
                let p_pos = match prev {
                    None => -1,
                    Some(p) => match self.last_insert {
                        // Typing runs anchor on the char just inserted.
                        Some((lid, lpos)) if lid == p.0 => lpos as isize,
                        _ => match self.index_of(p.0) {
                            Some(i) => i as isize,
                            None => {
                                // Guarded by `applicable`; defensive only.
                                self.needs_resync = true;
                                return;
                            }
                        },
                    },
                };
                self.integrate_insert(char.0, *ch, style.0, p_pos, ev_ts);
            }
            Effect::Delete { char, .. } => {
                if let Some(i) = self.index_of(char.0) {
                    let c = &mut self.chars[i];
                    if ev_ts >= c.flag_ts {
                        c.deleted = true;
                        c.flag_ts = ev_ts;
                    }
                }
            }
            Effect::Undelete { char } => {
                if let Some(i) = self.index_of(char.0) {
                    let c = &mut self.chars[i];
                    if ev_ts >= c.flag_ts {
                        c.deleted = false;
                        c.flag_ts = ev_ts;
                    }
                }
            }
            Effect::SetStyle { char, new, .. } => {
                if let Some(i) = self.index_of(char.0) {
                    let c = &mut self.chars[i];
                    if ev_ts >= c.style_ts {
                        c.style = new.0;
                        c.style_ts = ev_ts;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tendax_text::{CharId, DocId, StyleId, UserId};

    fn insert(char: u64, prev: Option<u64>, ch: char) -> Effect {
        Effect::Insert {
            char: CharId(char),
            prev: prev.map(CharId),
            ch,
            author: UserId(1),
            ts: 0,
            style: StyleId::NONE,
            src_doc: DocId::NONE,
            src_char: CharId::NONE,
            external: None,
        }
    }

    fn event(ts: u64, effects: Vec<Effect>) -> WireEvent {
        WireEvent {
            doc: 1,
            op: ts,
            commit_ts: ts,
            user: 1,
            origin: 1,
            kind: "insert".into(),
            effects,
        }
    }

    #[test]
    fn applies_inserts_in_chain_order() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        m.apply_event(event(
            1,
            vec![insert(10, None, 'a'), insert(11, Some(10), 'b')],
        ));
        m.apply_event(event(2, vec![insert(12, Some(10), 'X')]));
        assert_eq!(m.text(), "aXb");
        assert_eq!(m.synced_ts(), 2);
    }

    #[test]
    fn buffers_until_dependency_arrives() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        // Event 2 anchors on a char introduced by event 1.
        assert!(!m.apply_event(event(2, vec![insert(11, Some(10), 'b')])));
        assert_eq!(m.buffered(), 1);
        assert!(m.apply_event(event(1, vec![insert(10, None, 'a')])));
        assert_eq!(m.text(), "ab");
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn tombstones_keep_anchors_resolvable() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        m.apply_event(event(1, vec![insert(10, None, 'a')]));
        m.apply_event(event(
            2,
            vec![Effect::Delete {
                char: CharId(10),
                by: UserId(1),
                ts: 0,
            }],
        ));
        assert_eq!(m.text(), "");
        // Anchor on the tombstone still works.
        m.apply_event(event(3, vec![insert(11, Some(10), 'z')]));
        assert_eq!(m.text(), "z");
    }

    #[test]
    fn stale_events_below_snapshot_are_skipped() {
        let mut m = MirrorDoc::new(
            1,
            5,
            vec![WireChar {
                id: 10,
                ch: 'a',
                deleted: false,
                style: 0,
            }],
        );
        assert!(!m.apply_event(event(4, vec![insert(10, None, 'a')])));
        assert_eq!(m.text(), "a");
        assert_eq!(m.applied(), 0);
    }

    /// Publication happens outside the commit lock, so a lower-commit
    /// event can arrive after a higher-commit one was applied. The
    /// mirror must integrate it where commit-order application would
    /// have put it.
    #[test]
    fn late_event_behind_frontier_integrates_in_commit_order() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        // Commit order: ts1 'a' at head, then ts2 'b' at head → "ba".
        // Arrival order is inverted.
        assert!(m.apply_event(event(2, vec![insert(11, None, 'b')])));
        assert!(m.apply_event(event(1, vec![insert(10, None, 'a')])));
        assert!(!m.needs_resync());
        assert_eq!(m.text(), "ba");
        assert_eq!(m.synced_ts(), 2);
    }

    /// A late same-anchor insert must skip newer siblings *and their
    /// descendants* before taking its place.
    #[test]
    fn late_sibling_skips_newer_subtrees() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        // Commit order: a@1, z@2 (after a), x@3 (after a), y@4 (after x)
        // → server chain: a x y z.
        m.apply_event(event(1, vec![insert(10, None, 'a')]));
        m.apply_event(event(3, vec![insert(12, Some(10), 'x')]));
        m.apply_event(event(4, vec![insert(13, Some(12), 'y')]));
        // z arrives last despite committing second.
        m.apply_event(event(2, vec![insert(11, Some(10), 'z')]));
        assert_eq!(m.text(), "axyz");
        assert!(!m.needs_resync());
    }

    /// Delete/undelete are last-writer-wins on the commit timestamp even
    /// when they arrive out of order.
    #[test]
    fn flag_flips_are_last_writer_wins() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        m.apply_event(event(1, vec![insert(10, None, 'a')]));
        // Commit order: delete@2, undelete@3 → visible. Arrival order is
        // inverted; the stale delete must not win.
        m.apply_event(event(3, vec![Effect::Undelete { char: CharId(10) }]));
        m.apply_event(event(
            2,
            vec![Effect::Delete {
                char: CharId(10),
                by: UserId(1),
                ts: 0,
            }],
        ));
        assert_eq!(m.text(), "a");
    }

    #[test]
    fn runaway_buffer_flags_resync() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        for i in 0..(MAX_BUFFERED as u64 + 2) {
            // All anchored on a char that never arrives.
            m.apply_event(event(i + 10, vec![insert(1000 + i, Some(1), 'x')]));
        }
        assert!(m.needs_resync());
        // A snapshot recovers.
        m.reload(MirrorDoc::new(1, 1000, vec![]));
        assert!(!m.needs_resync());
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn snapshot_drops_covered_buffered_events() {
        let mut m = MirrorDoc::new(1, 0, vec![]);
        m.apply_event(event(3, vec![insert(11, Some(10), 'b')]));
        assert_eq!(m.buffered(), 1);
        // Snapshot at ts 5 already reflects event 3.
        m.reload(MirrorDoc::new(
            1,
            5,
            vec![
                WireChar {
                    id: 10,
                    ch: 'a',
                    deleted: false,
                    style: 0,
                },
                WireChar {
                    id: 11,
                    ch: 'b',
                    deleted: false,
                    style: 0,
                },
            ],
        ));
        assert_eq!(m.buffered(), 0);
        assert_eq!(m.text(), "ab");
    }

    /// Random interleavings of a fixed commit history all converge to
    /// the commit-order result.
    #[test]
    fn arbitrary_arrival_orders_converge() {
        // Commit history over one document (ts = index + 1).
        let history: Vec<WireEvent> = vec![
            event(1, vec![insert(10, None, 'h'), insert(11, Some(10), 'i')]),
            event(2, vec![insert(12, Some(10), 'e')]),
            event(
                3,
                vec![Effect::Delete {
                    char: CharId(11),
                    by: UserId(1),
                    ts: 0,
                }],
            ),
            event(4, vec![insert(13, Some(11), 'x')]),
            event(5, vec![insert(14, None, 'w')]),
            event(6, vec![Effect::Undelete { char: CharId(11) }]),
            event(
                7,
                vec![Effect::SetStyle {
                    char: CharId(10),
                    old: StyleId(0),
                    new: StyleId(9),
                }],
            ),
        ];

        // Reference: apply in commit order.
        let mut reference = MirrorDoc::new(1, 0, vec![]);
        for ev in &history {
            reference.apply_event(ev.clone());
        }

        // A handful of deterministic shuffles (rotations + reversal).
        let n = history.len();
        for rot in 0..n {
            let mut order: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
            if rot % 2 == 1 {
                order.reverse();
            }
            let mut m = MirrorDoc::new(1, 0, vec![]);
            for &i in &order {
                m.apply_event(history[i].clone());
            }
            assert_eq!(m.buffered(), 0, "order {order:?} left events buffered");
            assert!(!m.needs_resync(), "order {order:?} flagged resync");
            assert_eq!(m.text(), reference.text(), "order {order:?} diverged");
        }
    }
}
