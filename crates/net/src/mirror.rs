//! Client-side replica of a document, maintained from `Snapshot` and
//! `Event` frames.
//!
//! The mirror keeps the *full* character chain — tombstones included —
//! because committed effects address characters by id and may anchor an
//! insert on a deleted character.
//!
//! ## Layout
//!
//! A character lives in a slot of a page of `PAGE` (256) slots. A page is
//! allocated at its full size and never reallocated, so a slot number
//! names its character for the life of the mirror. The chain is a `next`
//! slot link from a head slot. Nothing is addressed by position: applying
//! an event walks nothing of the document (DESIGN §5.7).
//! Pages, not one growing vector, because the doubling reallocations of a
//! vector of a few hundred kilobytes per mirror left that much
//! freed-but-kept heap behind, which showed in the resident size.
//!
//! Two maps find a character's slot, and a lookup asks both. A snapshot
//! loads a run at a time, each into consecutive slots filled in one loop
//! from the run's id, flag and style and the snapshot's text, so the
//! loaded characters are indexed by *extents* — first id, first slot,
//! length — in a table sorted by id that never changes after the load: at
//! most one entry per run, not one per character. Only characters that
//! events insert go into an open-addressing hash. Sorting the extents is
//! also where a snapshot that names an id twice, even in two runs, shows:
//! two neighbouring extents overlap.
//!
//! ## Ordering
//!
//! Events are published to the transport *after* their transaction
//! commits, outside the commit lock, so two concurrent editors can put
//! their events on the wire out of commit-timestamp order. Applying
//! commits in ascending `commit_ts`, and an event's effects in order, the
//! server puts every insert right after its anchor. The mirror reaches the
//! same chain from any arrival order with the RGA rule, `commit_ts` as the
//! precedence:
//!
//! * start at the anchor's successor, or at the head;
//! * step past every character that committed later than the new one;
//! * link the new character in front of the first one that did not.
//!
//! The walk needs no positions because a character commits no earlier
//! than its anchor: commit timestamps never fall along an anchor edge.
//! Everything in a newer sibling's subtree committed later than the new
//! character and is stepped past. The first character that did not is an
//! older sibling, one inserted earlier by the same event, or lies beyond
//! the anchor's subtree; either way the new character goes in front of it.
//! No id is compared, so the rule holds whatever order the server
//! allocates ids in. Characters loaded from a snapshot carry commit 0:
//! they committed at or below the snapshot, and events at or below it are
//! skipped, so they are older than anything applied on top and stop the
//! walk.
//!
//! An event waits in a buffer until every character it names exists.
//! Deletes, undeletes and restyles are last-writer-wins on the
//! character, guarded by the commit timestamp. When the buffer grows
//! past a bound the mirror gives up and flags itself for a resync — the
//! client then requests a fresh `Snapshot`.

use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::BuildHasher;

use tendax_text::Effect;

use crate::error::{NetError, Result};
use crate::protocol::{SnapshotReader, SnapshotRun, WireChar, WireEvent, TAG_SNAPSHOT};

/// Buffered events past this many force a resync instead of waiting for
/// dependencies that will likely never arrive.
const MAX_BUFFERED: usize = 64;

/// Slots in a page.
const PAGE: usize = 256;

/// The slot number that names no slot: the end of the chain, an empty
/// chain's head, an empty bucket of the id index.
const NIL: u32 = u32::MAX;

/// One character of the replica plus the integration metadata.
#[derive(Debug)]
struct Slot {
    id: u64,
    /// Commit timestamp of the insert (0 for snapshot-loaded chars).
    ts: u64,
    /// Commit timestamp of the last applied delete/undelete.
    flag_ts: u64,
    /// Commit timestamp of the last applied restyle.
    style_ts: u64,
    style: u64,
    /// The next character's slot in chain order.
    next: u32,
    ch: char,
    deleted: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 56);

impl Slot {
    fn wire(&self) -> WireChar {
        WireChar {
            id: self.id,
            ch: self.ch,
            deleted: self.deleted,
            style: self.style,
        }
    }
}

/// Every character the mirror has seen, tombstones included, in the
/// order it arrived: slot `s` is `pages[s / PAGE][s % PAGE]`, and each
/// page is allocated with room for `PAGE` slots.
#[derive(Debug)]
struct Slots {
    pages: Vec<Vec<Slot>>,
}

impl Slots {
    fn with_capacity(n: usize) -> Self {
        Slots {
            pages: Vec::with_capacity(n.div_ceil(PAGE)),
        }
    }

    fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |p| (self.pages.len() - 1) * PAGE + p.len())
    }

    /// The next slot's number.
    fn next_slot(&self) -> u32 {
        // A slot is 56 bytes: 2^32 of them do not fit in memory.
        u32::try_from(self.len()).expect("fewer than 2^32 slots")
    }

    /// The last page, after opening one if it is full.
    fn open_page(&mut self) -> &mut Vec<Slot> {
        if self.pages.last().is_none_or(|p| p.len() == PAGE) {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        self.pages.last_mut().expect("a page was just opened")
    }

    /// Store `slot` in the next slot, opening a page when the last one is
    /// full; returns its slot number.
    fn push(&mut self, slot: Slot) -> u32 {
        let s = self.next_slot();
        self.open_page().push(slot);
        s
    }

    /// Store a snapshot run's characters, taken from `text`, in the next
    /// slots, a page at a time; each slot's `next` names the slot after
    /// it.
    fn push_run(&mut self, run: SnapshotRun, text: &mut std::str::Chars<'_>) {
        let mut s = self.next_slot();
        let mut id = run.first;
        let mut left = run.len as usize;
        while left > 0 {
            let page = self.open_page();
            let k = left.min(PAGE - page.len());
            page.extend(text.by_ref().take(k).map(|ch| {
                let slot = Slot {
                    id,
                    ts: 0,
                    flag_ts: 0,
                    style_ts: 0,
                    style: run.style,
                    next: s + 1,
                    ch,
                    deleted: run.deleted,
                };
                s += 1;
                // Past the run's last id, which may be `u64::MAX`.
                id = id.wrapping_add(1);
                slot
            }));
            left -= k;
        }
    }

    fn get(&self, s: u32) -> &Slot {
        let s = s as usize;
        &self.pages[s / PAGE][s % PAGE]
    }

    fn get_mut(&mut self, s: u32) -> &mut Slot {
        let s = s as usize;
        &mut self.pages[s / PAGE][s % PAGE]
    }
}

/// Inserted character id → slot: open addressing with linear probing, at
/// most half full. A bucket holds a slot number and the key is read from the
/// slot, so an entry costs four bytes a bucket.
#[derive(Debug)]
struct IdIndex {
    /// `NIL` or a slot number; the length is zero or a power of two.
    buckets: Vec<u32>,
    len: usize,
    /// Keys the bucket hash, drawn per mirror: ids come off the network,
    /// and a server that cannot predict the buckets cannot pick ids that
    /// pile into one.
    key: u64,
}

impl IdIndex {
    fn new() -> Self {
        IdIndex {
            buckets: Vec::new(),
            len: 0,
            key: RandomState::new().hash_one(0u64),
        }
    }

    /// The bucket a probe for `id` starts at: MurmurHash3's 64-bit
    /// finalizer of the keyed id. A multiply-shift hash was cheaper, but
    /// on a run of consecutive ids one multiplier in a hundred made the
    /// average probe 17 times as long.
    fn home(&self, id: u64) -> usize {
        let mut h = id ^ self.key;
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        (h ^ (h >> 33)) as usize & (self.buckets.len() - 1)
    }

    /// Probe for `id`: the bucket the probe stopped at and what it holds,
    /// the id's slot or `NIL` — then the bucket is where the id would go.
    fn probe(&self, slots: &Slots, id: u64) -> (usize, u32) {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(id);
        loop {
            match self.buckets[b] {
                s if s == NIL || slots.get(s).id == id => return (b, s),
                _ => b = (b + 1) & mask,
            }
        }
    }

    fn get(&self, slots: &Slots, id: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let (_, s) = self.probe(slots, id);
        (s != NIL).then_some(s)
    }

    /// Index slot `s` under its character's id, which is not indexed yet.
    fn insert(&mut self, slots: &Slots, s: u32) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let size = (2 * self.buckets.len()).max(16);
            let old = std::mem::replace(&mut self.buckets, vec![NIL; size]);
            for t in old.into_iter().filter(|&t| t != NIL) {
                let (b, _) = self.probe(slots, slots.get(t).id);
                self.buckets[b] = t;
            }
        }
        let (b, held) = self.probe(slots, slots.get(s).id);
        debug_assert_eq!(held, NIL, "an id indexed twice");
        self.buckets[b] = s;
        self.len += 1;
    }
}

/// Loaded characters with consecutive ids in consecutive slots: id
/// `first + k` is in slot `slot + k`, for `k < len`.
#[derive(Debug, Clone, Copy)]
struct Extent {
    first: u64,
    slot: u32,
    len: u32,
}

/// Loaded character id → slot: the extents, sorted by first id, none
/// overlapping another.
#[derive(Debug)]
struct Extents(Vec<Extent>);

impl Extents {
    fn get(&self, id: u64) -> Option<u32> {
        let after = self.0.partition_point(|e| e.first <= id);
        let e = self.0.get(after.checked_sub(1)?)?;
        let k = id - e.first;
        (k < u64::from(e.len)).then(|| e.slot + k as u32)
    }

    /// Index `len` characters, ids from `first`, just loaded into slots
    /// from `slot`, lengthening the last extent if the ids continue it.
    /// The slots always do: a load fills them in order.
    fn push(&mut self, first: u64, slot: u32, len: u32) {
        match self.0.last_mut() {
            Some(e) if e.first.checked_add(u64::from(e.len)) == Some(first) => {
                debug_assert_eq!(e.slot + e.len, slot, "a load fills slots in order");
                e.len += len
            }
            _ => self.0.push(Extent { first, slot, len }),
        }
    }

    /// Sort by first id once the load is done; an id in two extents is
    /// the first one that overlaps its predecessor.
    fn seal(&mut self) -> std::result::Result<(), u64> {
        self.0.sort_unstable_by_key(|e| e.first);
        match self
            .0
            .windows(2)
            .find(|w| w[1].first - w[0].first < u64::from(w[0].len))
        {
            Some(w) => Err(w[1].first),
            None => Ok(()),
        }
    }
}

/// A client-side replica of one document.
#[derive(Debug)]
pub struct MirrorDoc {
    doc: u64,
    slots: Slots,
    /// The first character's slot in chain order.
    head: u32,
    /// Where the snapshot's characters are.
    loaded: Extents,
    /// Where the characters events inserted are.
    index: IdIndex,
    /// Characters not deleted.
    visible: usize,
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
    /// A replica of `chars` in chain order, grouped into runs by the
    /// snapshot coder's rule and loaded like a decoded snapshot. A
    /// character named twice is refused as a bad `Snapshot`, like
    /// [`MirrorDoc::from_snapshot_payload`].
    pub fn new(doc: u64, synced_ts: u64, chars: Vec<WireChar>) -> Result<Self> {
        let mut runs: Vec<SnapshotRun> = Vec::new();
        let mut text = String::with_capacity(chars.len());
        for c in &chars {
            match runs.last_mut() {
                Some(run) if run.continues_with(c.id, c.deleted, c.style) => run.len += 1,
                _ => runs.push(SnapshotRun::of(c.id, c.deleted, c.style)),
            }
            text.push(c.ch);
        }
        Self::load(doc, synced_ts, chars.len(), runs.into_iter(), &text)
    }

    /// Decode a `Snapshot` payload straight into a replica. A payload that
    /// fails to decode, or names a character twice, yields the typed
    /// error and no replica.
    pub fn from_snapshot_payload(payload: &[u8]) -> Result<Self> {
        Self::from_snapshot(&SnapshotReader::new(payload)?)
    }

    /// A replica of a decoded snapshot.
    pub(crate) fn from_snapshot(snap: &SnapshotReader<'_>) -> Result<Self> {
        Self::load(
            snap.doc,
            snap.synced_ts,
            snap.chars,
            snap.runs(),
            snap.text(),
        )
    }

    /// Load `runs`, in chain order, holding the `n` characters of `text`,
    /// a run at a time: each into the next slots, linked in that order,
    /// and one extent.
    fn load(
        doc: u64,
        synced_ts: u64,
        n: usize,
        runs: impl ExactSizeIterator<Item = SnapshotRun>,
        text: &str,
    ) -> Result<Self> {
        let mut m = MirrorDoc {
            doc,
            slots: Slots::with_capacity(n),
            head: NIL,
            loaded: Extents(Vec::with_capacity(runs.len())),
            index: IdIndex::new(),
            visible: 0,
            baseline: synced_ts,
            synced_ts,
            buffered: BTreeMap::new(),
            needs_resync: false,
            applied: 0,
        };
        let mut text = text.chars();
        for run in runs {
            m.loaded.push(run.first, m.slots.next_slot(), run.len);
            m.slots.push_run(run, &mut text);
            if !run.deleted {
                m.visible += run.len as usize;
            }
        }
        if let Some(last) = m.slots.next_slot().checked_sub(1) {
            m.head = 0;
            m.slots.get_mut(last).next = NIL;
        }
        m.loaded.seal().map_err(|id| NetError::BadPayload {
            tag: TAG_SNAPSHOT,
            reason: format!("character {id} appears twice"),
        })?;
        Ok(m)
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

    /// The full chain in order, tombstones included, as a snapshot of the
    /// same document would list it.
    pub fn chars(&self) -> impl Iterator<Item = WireChar> + '_ {
        let at = |s: u32| (s != NIL).then(|| self.slots.get(s));
        std::iter::successors(at(self.head), move |c| at(c.next)).map(Slot::wire)
    }

    /// Visible text (tombstones skipped).
    pub fn text(&self) -> String {
        self.chars().filter(|c| !c.deleted).map(|c| c.ch).collect()
    }

    /// Visible length in characters.
    pub fn len(&self) -> usize {
        self.visible
    }

    pub fn is_empty(&self) -> bool {
        self.visible == 0
    }

    /// Replace the replica's contents with those of `fresh`, a replica
    /// just built from a snapshot of the same document (subscribe again
    /// or resync); events buffered here that the snapshot does not cover
    /// are kept.
    pub fn reload(&mut self, fresh: MirrorDoc) {
        self.slots = fresh.slots;
        self.head = fresh.head;
        self.loaded = fresh.loaded;
        self.index = fresh.index;
        self.visible = fresh.visible;
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
        if self.buffered.is_empty() && self.applicable(&ev) {
            self.apply(&ev);
            return true;
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
        while let Some((_, ev)) = self.buffered.first_key_value() {
            if !self.applicable(ev) {
                break;
            }
            let (_, ev) = self
                .buffered
                .pop_first()
                .expect("a first entry was just seen");
            self.apply(&ev);
            advanced = true;
        }
        advanced
    }

    fn apply(&mut self, ev: &WireEvent) {
        for e in &ev.effects {
            self.apply_effect(e, ev.commit_ts);
        }
        self.synced_ts = self.synced_ts.max(ev.commit_ts);
        self.applied += 1;
    }

    /// All referenced characters exist, or are introduced earlier in the
    /// same event.
    fn applicable(&self, ev: &WireEvent) -> bool {
        ev.effects.iter().enumerate().all(|(i, e)| {
            let known = |id: u64| self.slot_of(id).is_some() || inserts(&ev.effects[..i], id);
            match e {
                Effect::Insert { prev, .. } => prev.is_none_or(|p| known(p.0)),
                Effect::Delete { char, .. }
                | Effect::Undelete { char }
                | Effect::SetStyle { char, .. } => known(char.0),
            }
        })
    }

    /// Place a newly arrived insert where commit-order application would
    /// have put it, regardless of arrival order (see the module doc).
    fn integrate_insert(&mut self, id: u64, ch: char, style: u64, prev: Option<u64>, ts: u64) {
        let (mut before, mut at) = match prev {
            None => (NIL, self.head),
            Some(p) => match self.slot_of(p) {
                Some(s) => (s, self.slots.get(s).next),
                None => {
                    // Guarded by `applicable`; defensive only.
                    self.needs_resync = true;
                    return;
                }
            },
        };
        while at != NIL && self.slots.get(at).ts > ts {
            before = at;
            at = self.slots.get(at).next;
        }
        let s = self.slots.push(Slot {
            id,
            ts,
            flag_ts: 0,
            style_ts: 0,
            style,
            next: at,
            ch,
            deleted: false,
        });
        self.index.insert(&self.slots, s);
        match before {
            NIL => self.head = s,
            b => self.slots.get_mut(b).next = s,
        }
        self.visible += 1;
    }

    /// The slot of character `id`, if the mirror has it: loaded from the
    /// snapshot, or inserted by an event.
    fn slot_of(&self, id: u64) -> Option<u32> {
        self.loaded
            .get(id)
            .or_else(|| self.index.get(&self.slots, id))
    }

    /// Character `id`, if the mirror has it.
    fn find(&mut self, id: u64) -> Option<&mut Slot> {
        let s = self.slot_of(id)?;
        Some(self.slots.get_mut(s))
    }

    /// Set a character's deleted flag if `ts` is its newest flip.
    fn flip(&mut self, id: u64, deleted: bool, ts: u64) {
        let Some(c) = self.find(id) else {
            return;
        };
        if ts < c.flag_ts {
            return;
        }
        let was = c.deleted;
        c.deleted = deleted;
        c.flag_ts = ts;
        self.visible = self.visible + usize::from(was) - usize::from(deleted);
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
                if self.slot_of(char.0).is_none() {
                    self.integrate_insert(char.0, *ch, style.0, prev.map(|p| p.0), ev_ts);
                }
            }
            Effect::Delete { char, .. } => self.flip(char.0, true, ev_ts),
            Effect::Undelete { char } => self.flip(char.0, false, ev_ts),
            Effect::SetStyle { char, new, .. } => {
                if let Some(c) = self.find(char.0) {
                    if ev_ts >= c.style_ts {
                        c.style = new.0;
                        c.style_ts = ev_ts;
                    }
                }
            }
        }
    }
}

/// Whether one of `effects` inserts `id`. Searched from the back: an op
/// inserts one run, each character anchored on the one before it, so
/// for every event a server sends the search ends at its first step.
fn inserts(effects: &[Effect], id: u64) -> bool {
    effects
        .iter()
        .rev()
        .any(|e| matches!(e, Effect::Insert { char, .. } if char.0 == id))
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

    fn wire(id: u64, ch: char) -> WireChar {
        WireChar {
            id,
            ch,
            deleted: false,
            style: 0,
        }
    }

    fn empty() -> MirrorDoc {
        MirrorDoc::new(1, 0, vec![]).unwrap()
    }

    #[test]
    fn applies_inserts_in_chain_order() {
        let mut m = empty();
        m.apply_event(event(
            1,
            vec![insert(10, None, 'a'), insert(11, Some(10), 'b')],
        ));
        m.apply_event(event(2, vec![insert(12, Some(10), 'X')]));
        assert_eq!(m.text(), "aXb");
        assert_eq!(m.len(), 3);
        assert_eq!(m.synced_ts(), 2);
    }

    #[test]
    fn buffers_until_dependency_arrives() {
        let mut m = empty();
        // Event 2 anchors on a char introduced by event 1.
        assert!(!m.apply_event(event(2, vec![insert(11, Some(10), 'b')])));
        assert_eq!(m.buffered(), 1);
        assert!(m.apply_event(event(1, vec![insert(10, None, 'a')])));
        assert_eq!(m.text(), "ab");
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn tombstones_keep_anchors_resolvable() {
        let mut m = empty();
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
        assert!(m.is_empty());
        // Anchor on the tombstone still works.
        m.apply_event(event(3, vec![insert(11, Some(10), 'z')]));
        assert_eq!(m.text(), "z");
        assert_eq!(m.chars().count(), 2);
    }

    #[test]
    fn stale_events_below_snapshot_are_skipped() {
        let mut m = MirrorDoc::new(1, 5, vec![wire(10, 'a')]).unwrap();
        assert!(!m.apply_event(event(4, vec![insert(10, None, 'a')])));
        assert_eq!(m.text(), "a");
        assert_eq!(m.applied(), 0);
    }

    /// A snapshot that names a character twice would show it twice, and
    /// a later delete would flip one copy: it is refused, typed.
    #[test]
    fn a_snapshot_naming_a_character_twice_is_refused() {
        match MirrorDoc::new(1, 5, vec![wire(10, 'a'), wire(11, 'b'), wire(10, 'a')]) {
            Err(NetError::BadPayload { tag, .. }) => assert_eq!(tag, TAG_SNAPSHOT),
            other => panic!("{other:?}"),
        }
    }

    /// Ids that continue across a flag and a style change are three runs
    /// on the wire and one extent in the mirror, whichever way it loads.
    #[test]
    fn runs_whose_ids_continue_load_as_one_extent() {
        let chars = vec![
            wire(10, 'a'),
            WireChar {
                deleted: true,
                ..wire(11, 'b')
            },
            WireChar {
                style: 3,
                ..wire(12, 'c')
            },
            wire(20, 'd'),
        ];
        let payload = crate::Frame::Snapshot {
            request: 0,
            doc: 1,
            synced_ts: 5,
            chars: chars.clone(),
        }
        .encode();
        let reader = SnapshotReader::new(&payload[5..]).unwrap();
        assert_eq!(reader.runs().len(), 4);
        for m in [
            MirrorDoc::from_snapshot(&reader).unwrap(),
            MirrorDoc::new(1, 5, chars.clone()).unwrap(),
        ] {
            let extents: Vec<_> = m
                .loaded
                .0
                .iter()
                .map(|e| (e.first, e.slot, e.len))
                .collect();
            assert_eq!(extents, [(10, 0, 3), (20, 3, 1)]);
            assert_eq!(m.chars().collect::<Vec<_>>(), chars);
            assert_eq!((m.len(), m.text()), (3, "acd".to_owned()));
            assert_eq!(m.slot_of(12), Some(2));
            assert_eq!(m.slot_of(13), None);
        }
    }

    /// Publication happens outside the commit lock, so a lower-commit
    /// event can arrive after a higher-commit one was applied. The
    /// mirror must integrate it where commit-order application would
    /// have put it.
    #[test]
    fn late_event_behind_frontier_integrates_in_commit_order() {
        let mut m = empty();
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
        let mut m = empty();
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

    /// Within one event the server applies the effects in order, each
    /// right after its anchor, so two inserts on one anchor end up
    /// later-first whatever their ids; a newer commit on the same anchor
    /// still goes in front of both.
    #[test]
    fn one_event_inserting_twice_on_one_anchor_puts_the_later_first() {
        let mut m = empty();
        m.apply_event(event(1, vec![insert(10, None, 'a')]));
        // Commit order: y@2 then x@2 (both after a), z@3 (after a)
        // → server chain: a z x y. The newer event arrives first.
        m.apply_event(event(3, vec![insert(13, Some(10), 'z')]));
        m.apply_event(event(
            2,
            vec![insert(12, Some(10), 'y'), insert(11, Some(10), 'x')],
        ));
        assert_eq!(m.text(), "azxy");
    }

    /// Delete/undelete are last-writer-wins on the commit timestamp even
    /// when they arrive out of order.
    #[test]
    fn flag_flips_are_last_writer_wins() {
        let mut m = empty();
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
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn runaway_buffer_flags_resync() {
        let mut m = empty();
        for i in 0..(MAX_BUFFERED as u64 + 2) {
            // All anchored on a char that never arrives.
            m.apply_event(event(i + 10, vec![insert(1000 + i, Some(1), 'x')]));
        }
        assert!(m.needs_resync());
        // A snapshot recovers.
        m.reload(MirrorDoc::new(1, 1000, vec![]).unwrap());
        assert!(!m.needs_resync());
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn snapshot_drops_covered_buffered_events() {
        let mut m = empty();
        m.apply_event(event(3, vec![insert(11, Some(10), 'b')]));
        assert_eq!(m.buffered(), 1);
        // Snapshot at ts 5 already reflects event 3.
        m.reload(MirrorDoc::new(1, 5, vec![wire(10, 'a'), wire(11, 'b')]).unwrap());
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
        let mut reference = empty();
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
            let mut m = empty();
            for &i in &order {
                m.apply_event(history[i].clone());
            }
            assert_eq!(m.buffered(), 0, "order {order:?} left events buffered");
            assert!(!m.needs_resync(), "order {order:?} flagged resync");
            assert_eq!(
                m.chars().collect::<Vec<_>>(),
                reference.chars().collect::<Vec<_>>(),
                "order {order:?} diverged"
            );
            assert_eq!(m.len(), reference.len());
        }
    }

    /// Loaded runs in shuffled id order, events naming the first and the
    /// last id of every extent, and one past each: the named ones are
    /// found in the extents, the ones past them wait, and the chain is
    /// the one the server holds.
    #[test]
    fn events_find_every_extent_edge_and_wait_past_one() {
        // Chain order; within a stretch ids are consecutive, and the flag
        // or the style changes mid-stretch, so a stretch is several runs
        // and one extent.
        let stretches: [(u64, u64); 6] =
            [(500, 5), (20, 3), (9000, 1), (130, 7), (4000, 2), (60, 4)];
        let mut server: Vec<WireChar> = Vec::new();
        for (first, len) in stretches {
            for k in 0..len {
                server.push(WireChar {
                    id: first + k,
                    ch: char::from(b'a' + (server.len() % 26) as u8),
                    deleted: k % 3 == 1,
                    style: k / 2,
                });
            }
        }
        let payload = crate::Frame::Snapshot {
            request: 0,
            doc: 1,
            synced_ts: 5,
            chars: server.clone(),
        }
        .encode();
        let mut m = MirrorDoc::from_snapshot_payload(&payload[5..]).unwrap();
        assert_eq!(m.loaded.0.len(), stretches.len());

        // The server applies each event in commit order; every insert is
        // the newest, so it lands right after its anchor.
        let at = |chain: &[WireChar], id: u64| chain.iter().position(|c| c.id == id).unwrap();
        let mut ts = 5;
        let mut fresh = 100_000;
        for (first, len) in stretches {
            let last = first + len - 1;
            ts += 1;
            fresh += 1;
            assert!(m.apply_event(event(ts, vec![insert(fresh, Some(first), '+')])));
            let p = at(&server, first);
            server.insert(p + 1, wire(fresh, '+'));
            ts += 1;
            assert!(m.apply_event(event(
                ts,
                vec![Effect::Delete {
                    char: CharId(last),
                    by: UserId(1),
                    ts: 0,
                }],
            )));
            let p = at(&server, last);
            server[p].deleted = true;
            ts += 1;
            assert!(m.apply_event(event(
                ts,
                vec![Effect::SetStyle {
                    char: CharId(first),
                    old: StyleId(0),
                    new: StyleId(42),
                }],
            )));
            let p = at(&server, first);
            server[p].style = 42;
        }
        for (first, len) in stretches {
            ts += 1;
            assert!(!m.apply_event(event(ts, vec![insert(fresh + 1, Some(first + len), '?')])));
            fresh += 1;
        }
        assert_eq!(m.buffered(), stretches.len());
        assert!(!m.needs_resync());
        assert_eq!(m.chars().collect::<Vec<_>>(), server);
        assert_eq!(m.len(), server.iter().filter(|c| !c.deleted).count());
    }
}
