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
//! The server publishes a document's events in commit order, and a
//! stream carries them strictly above its snapshot's frontier, so the
//! mirror applies each event as it arrives, its effects in order, as the
//! server did. Every character the mirror holds committed before the
//! event, so an insert is the newest child of its anchor and goes right
//! after it, as the server's chain has it. Deletes, undeletes and
//! restyles set the character as they say.
//!
//! An event at or below `synced_ts` — a duplicate, or one the snapshot
//! holds — is skipped, so `synced_ts` is a frontier: the mirror holds
//! every commit of its document at or below it, and none above. An event
//! that names a character the mirror lacks, or inserts one it has, cannot
//! come from such a stream: it is a protocol error, and the mirror flags
//! itself for a resync — the client then requests a fresh `Snapshot`.
//!
//! A mirror kept since its document was closed resumes from a `Delta`
//! ([`MirrorDoc::apply_delta`]): the commits above its frontier, applied
//! as events, and the frontier they bring it to.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use tendax_text::Effect;

use crate::error::{NetError, Result};
use crate::protocol::{SnapshotReader, SnapshotRun, WireChar, WireEvent, TAG_SNAPSHOT};

/// Slots in a page.
const PAGE: usize = 256;

/// The slot number that names no slot: the end of the chain, an empty
/// chain's head, an empty bucket of the id index.
const NIL: u32 = u32::MAX;

/// One character of the replica and its successor's slot.
#[derive(Debug)]
struct Slot {
    id: u64,
    style: u64,
    /// The next character's slot in chain order.
    next: u32,
    ch: char,
    deleted: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

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
        // A slot is 32 bytes: 2^32 of them do not fit in memory.
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
    /// The frontier: every commit of the document at or below it is in
    /// the replica, and none above. Events at or below it are skipped.
    synced_ts: u64,
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
            synced_ts,
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

    /// The frontier: every commit of the document at or below it is in
    /// the replica, and none above.
    pub fn synced_ts(&self) -> u64 {
        self.synced_ts
    }

    pub fn needs_resync(&self) -> bool {
        self.needs_resync
    }

    pub fn applied(&self) -> u64 {
        self.applied
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
    /// or resync).
    pub fn reload(&mut self, fresh: MirrorDoc) {
        let applied = self.applied;
        *self = fresh;
        self.applied = applied;
    }

    /// Ingest one committed event. `Ok(true)` if it was applied,
    /// `Ok(false)` if it was skipped: at or below `synced_ts`, or while the
    /// mirror waits for a resync. An event that names a character the
    /// mirror lacks, or inserts one it has, is an error, and the mirror
    /// flags itself for a resync.
    pub fn apply_event(&mut self, ev: WireEvent) -> Result<bool> {
        if self.needs_resync || ev.commit_ts <= self.synced_ts {
            return Ok(false);
        }
        for e in &ev.effects {
            if let Err(id) = self.apply_effect(e) {
                self.needs_resync = true;
                return Err(NetError::Protocol(format!(
                    "the event of commit {} on document {} does not fit character {id}",
                    ev.commit_ts, self.doc
                )));
            }
        }
        self.synced_ts = ev.commit_ts;
        self.applied += 1;
        Ok(true)
    }

    /// Resume from a `Delta`: `events`, the commits of the document above
    /// `from` in commit order, bring the mirror to `synced_ts`. It fits
    /// only a mirror of its document, not waiting for a resync, that holds
    /// every commit up to `from` — `synced_ts() ≥ from` — and only if each
    /// event lies in `(from, synced_ts]`, above the one before, and fits
    /// as [`MirrorDoc::apply_event`] says; events the mirror holds already
    /// are skipped. Anything else is an error, and the mirror flags itself
    /// for a resync.
    pub fn apply_delta(
        &mut self,
        doc: u64,
        from: u64,
        synced_ts: u64,
        events: Vec<WireEvent>,
    ) -> Result<()> {
        let mut last = from;
        let fits = !self.needs_resync
            && doc == self.doc
            && from <= self.synced_ts
            && events.iter().all(|ev| {
                let inside = last < ev.commit_ts && ev.commit_ts <= synced_ts;
                last = ev.commit_ts;
                inside
            });
        if !fits {
            self.needs_resync = true;
            return Err(NetError::Protocol(format!(
                "a delta of document {doc} from {from} to {synced_ts} does not fit the mirror \
                 of document {} at {}",
                self.doc, self.synced_ts
            )));
        }
        for ev in events {
            self.apply_event(ev)?;
        }
        self.synced_ts = self.synced_ts.max(synced_ts);
        Ok(())
    }

    /// Apply one effect; `Err` with the id it names if the mirror lacks
    /// it, or, for an insert, has it.
    fn apply_effect(&mut self, e: &Effect) -> std::result::Result<(), u64> {
        let (id, deleted) = match *e {
            Effect::Insert {
                char,
                prev,
                ch,
                style,
                ..
            } => {
                if self.slot_of(char.0).is_some() {
                    return Err(char.0);
                }
                // Right after its anchor, or at the head.
                let before = prev.map(|p| self.slot_of(p.0).ok_or(p.0)).transpose()?;
                let next = before.map_or(self.head, |b| self.slots.get(b).next);
                let s = self.slots.push(Slot {
                    id: char.0,
                    style: style.0,
                    next,
                    ch,
                    deleted: false,
                });
                self.index.insert(&self.slots, s);
                match before {
                    None => self.head = s,
                    Some(b) => self.slots.get_mut(b).next = s,
                }
                self.visible += 1;
                return Ok(());
            }
            Effect::Delete { char, .. } => (char.0, true),
            Effect::Undelete { char } => (char.0, false),
            Effect::SetStyle { char, new, .. } => {
                self.find(char.0).ok_or(char.0)?.style = new.0;
                return Ok(());
            }
        };
        let c = self.find(id).ok_or(id)?;
        let was = std::mem::replace(&mut c.deleted, deleted);
        self.visible = self.visible + usize::from(was) - usize::from(deleted);
        Ok(())
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

    /// Apply an event that fits; whether it was applied.
    fn apply(m: &mut MirrorDoc, ev: WireEvent) -> bool {
        m.apply_event(ev).unwrap()
    }

    fn delete(char: u64) -> Effect {
        Effect::Delete {
            char: CharId(char),
            by: UserId(1),
            ts: 0,
        }
    }

    #[test]
    fn applies_inserts_in_chain_order() {
        let mut m = empty();
        apply(
            &mut m,
            event(1, vec![insert(10, None, 'a'), insert(11, Some(10), 'b')]),
        );
        apply(&mut m, event(2, vec![insert(12, Some(10), 'X')]));
        assert_eq!(m.text(), "aXb");
        assert_eq!(m.len(), 3);
        assert_eq!(m.synced_ts(), 2);
    }

    #[test]
    fn tombstones_keep_anchors_resolvable() {
        let mut m = empty();
        apply(&mut m, event(1, vec![insert(10, None, 'a')]));
        apply(&mut m, event(2, vec![delete(10)]));
        assert_eq!(m.text(), "");
        assert!(m.is_empty());
        // Anchor on the tombstone still works.
        apply(&mut m, event(3, vec![insert(11, Some(10), 'z')]));
        assert_eq!(m.text(), "z");
        assert_eq!(m.chars().count(), 2);
    }

    #[test]
    fn stale_events_below_snapshot_are_skipped() {
        let mut m = MirrorDoc::new(1, 5, vec![wire(10, 'a')]).unwrap();
        assert!(!apply(&mut m, event(4, vec![insert(10, None, 'a')])));
        assert!(!apply(&mut m, event(5, vec![insert(11, None, 'b')])));
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

    /// Within one event the server applies the effects in order, each
    /// right after its anchor, so two inserts on one anchor end up
    /// later-first whatever their ids; a newer commit on the same anchor
    /// goes in front of both.
    #[test]
    fn one_event_inserting_twice_on_one_anchor_puts_the_later_first() {
        let mut m = empty();
        apply(&mut m, event(1, vec![insert(10, None, 'a')]));
        // Commit order: y@2 then x@2 (both after a), z@3 (after a)
        // → server chain: a z x y.
        apply(
            &mut m,
            event(
                2,
                vec![insert(12, Some(10), 'y'), insert(11, Some(10), 'x')],
            ),
        );
        apply(&mut m, event(3, vec![insert(13, Some(10), 'z')]));
        assert_eq!(m.text(), "azxy");
    }

    /// Delete/undelete are last-writer-wins: an older flip arrives only as
    /// an event at or below the frontier, and is skipped.
    #[test]
    fn flag_flips_are_last_writer_wins() {
        let mut m = empty();
        apply(&mut m, event(1, vec![insert(10, None, 'a')]));
        apply(&mut m, event(2, vec![delete(10)]));
        apply(
            &mut m,
            event(3, vec![Effect::Undelete { char: CharId(10) }]),
        );
        assert!(!apply(&mut m, event(2, vec![delete(10)])));
        assert_eq!(m.text(), "a");
        assert_eq!(m.len(), 1);
    }

    /// An event that names a character the mirror lacks, or inserts one it
    /// has, cannot come from a stream in commit order: it is refused, the
    /// mirror flags itself for a resync and skips every event until a
    /// snapshot reloads it.
    #[test]
    fn an_event_that_does_not_fit_flags_a_resync() {
        for bad in [insert(11, Some(99), 'x'), insert(10, None, 'x'), delete(99)] {
            let mut m = empty();
            apply(&mut m, event(1, vec![insert(10, None, 'a')]));
            let refused = m.apply_event(event(2, vec![bad]));
            assert!(matches!(refused, Err(NetError::Protocol(_))), "{refused:?}");
            assert!(m.needs_resync());
            assert!(!apply(&mut m, event(3, vec![insert(12, Some(10), 'b')])));
            m.reload(MirrorDoc::new(1, 3, vec![wire(10, 'a'), wire(12, 'b')]).unwrap());
            assert!(!m.needs_resync());
            assert!(apply(&mut m, event(4, vec![delete(10)])));
            assert_eq!((m.text(), m.synced_ts(), m.applied()), ("b".into(), 4, 2));
        }
    }

    /// A delta applies its events to a mirror that holds every commit up
    /// to its `from`, skipping those the mirror holds already, and brings
    /// the mirror to its frontier. One that does not fit — a mirror behind
    /// `from`, another document, an event outside `(from, synced_ts]` or
    /// out of order — is refused, and the mirror flags itself for a
    /// resync.
    #[test]
    fn a_delta_resumes_only_a_mirror_at_or_past_its_from() {
        let base = || {
            let mut m = empty();
            apply(&mut m, event(2, vec![insert(10, None, 'a')]));
            m
        };
        let mut m = base();
        let events = vec![
            event(2, vec![insert(10, None, 'a')]),
            event(3, vec![insert(11, Some(10), 'b')]),
            event(5, vec![delete(10)]),
        ];
        m.apply_delta(1, 1, 9, events.clone()).unwrap();
        assert_eq!((m.text(), m.synced_ts(), m.applied()), ("b".into(), 9, 3));
        let late = vec![event(3, vec![insert(11, Some(10), 'b')])];
        let out_of_order = vec![events[2].clone(), events[1].clone()];
        let behind = vec![event(5, vec![delete(10)])];
        let refused = [
            (1, 4, 9, behind),
            (1, 1, 4, events.clone()),
            (1, 1, 9, out_of_order),
            (2, 2, 9, late),
        ];
        for (doc, from, to, events) in refused {
            let mut m = base();
            assert!(m.apply_delta(doc, from, to, events).is_err());
            assert!(m.needs_resync() && m.synced_ts() == 2);
        }
    }

    /// Loaded runs in shuffled id order, events naming the first and the
    /// last id of every extent, and one past each: the named ones are
    /// found in the extents, and the chain is the one the server holds;
    /// one past an extent is a character the mirror lacks, and flags a
    /// resync.
    #[test]
    fn events_find_every_extent_edge_and_flag_a_resync_past_one() {
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
            assert!(apply(
                &mut m,
                event(ts, vec![insert(fresh, Some(first), '+')])
            ));
            let p = at(&server, first);
            server.insert(p + 1, wire(fresh, '+'));
            ts += 1;
            assert!(apply(&mut m, event(ts, vec![delete(last)])));
            let p = at(&server, last);
            server[p].deleted = true;
            ts += 1;
            assert!(apply(
                &mut m,
                event(
                    ts,
                    vec![Effect::SetStyle {
                        char: CharId(first),
                        old: StyleId(0),
                        new: StyleId(42),
                    }],
                )
            ));
            let p = at(&server, first);
            server[p].style = 42;
        }
        assert!(!m.needs_resync());
        assert_eq!(m.chars().collect::<Vec<_>>(), server);
        assert_eq!(m.len(), server.iter().filter(|c| !c.deleted).count());
        for (first, len) in stretches {
            let mut past = MirrorDoc::from_snapshot_payload(&payload[5..]).unwrap();
            let ev = event(6, vec![insert(fresh + 1, Some(first + len), '?')]);
            assert!(past.apply_event(ev).is_err());
            assert!(past.needs_resync());
        }
    }
}
