//! Multi-versioned heap tables.
//!
//! Each row id owns a *version chain*: an append-only, commit-timestamp
//! ordered list of `Put`/`Delete` versions. A snapshot at timestamp `ts`
//! sees, for each row, the newest version with `commit_ts <= ts`; if that
//! version is a `Delete` (or no version qualifies) the row is invisible.
//! This is classic snapshot isolation — readers never block writers and
//! vice versa, which is what lets TeNDaX editors read documents while
//! others type into them.
//!
//! The chains live in *row slots*: row ids are handed out densely from 1
//! per table, so a row's chain is found by indexing with its id, in
//! fixed-size pages of slots (see [`SLOTS_PER_PAGE`]).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Result, StorageError};
use crate::index::{IndexKey, IndexStore};
use crate::query::{plan_access, AccessPath, Predicate};
use crate::row::{RowId, SharedRow};
use crate::schema::{TableDef, TableId};

/// Commit timestamp. `0` is reserved: no committed data carries it.
pub type Ts = u64;

/// Visibility horizon that sees everything ever committed.
pub const TS_LATEST: Ts = u64::MAX;

/// One committed version of a row.
#[derive(Debug, Clone)]
pub struct Version {
    pub commit_ts: Ts,
    pub op: VersionOp,
}

/// What a version did to the row. Put versions hold a [`SharedRow`]: the
/// same allocation is handed to readers and index maintenance, and its
/// bytes are what the WAL encoder writes.
#[derive(Debug, Clone)]
pub enum VersionOp {
    Put(SharedRow),
    Delete,
}

/// A row's versions, oldest first. Most rows are written once (every
/// `oplog` and `op_effects` row, every character nobody typed next to),
/// so the first version lives in the row's slot and a `Vec` is allocated
/// when a second arrives.
#[derive(Debug)]
enum Chain {
    One(Version),
    Many(Vec<Version>),
}

// A slot is a chain and nothing else: an empty one costs the chain's
// own tag value, not a word beside it.
const _: () = assert!(std::mem::size_of::<Option<Chain>>() == 32);

impl Chain {
    fn versions(&self) -> &[Version] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }

    fn push(&mut self, v: Version) {
        if let Chain::Many(vs) = self {
            return vs.push(v);
        }
        // The first version moves into the `Vec` as it is: its row is
        // not copied.
        let Chain::One(first) = std::mem::replace(self, Chain::Many(Vec::new())) else {
            unreachable!("a chain is One or Many")
        };
        *self = Chain::Many(vec![first, v]);
    }

    /// Drop the oldest `n` versions (fewer than there are), giving the
    /// `Vec` back when one is left.
    fn drop_oldest(&mut self, n: usize) {
        if let Chain::Many(vs) = self {
            vs.drain(..n);
            if vs.len() == 1 {
                *self = Chain::One(vs.pop().expect("one version left"));
            }
        }
    }

    /// Heap bytes behind this chain's slot.
    fn spilled_bytes(&self) -> usize {
        match self {
            Chain::One(_) => 0,
            Chain::Many(vs) => vs.capacity() * std::mem::size_of::<Version>(),
        }
    }
}

/// Row slots a page holds: row `id` lives in slot `id % SLOTS_PER_PAGE`
/// of page `id / SLOTS_PER_PAGE`.
pub const SLOTS_PER_PAGE: u64 = 256;

/// One page of slots, allocated whole.
type Page = Box<[Option<Chain>]>;

/// A table's version chains, in slots indexed by row id.
///
/// Slots come in pages of [`SLOTS_PER_PAGE`], each allocated the first
/// time a row lands in it and freed when vacuum empties it. A growing
/// table therefore never moves a slot: there is no array that doubles
/// and holds two copies of the table while it does. The directory lists
/// the allocated pages by page number, ascending; it is what a row id
/// far past the others costs (one entry and one page, not a directory
/// sized by the id). With dense ids page `n` is entry `n - first`, so
/// finding a chain is two index operations; a page freed in the middle
/// makes it a binary search over the directory.
#[derive(Debug, Default)]
struct RowSlots {
    pages: Vec<(u64, Page)>,
    /// Occupied slots.
    rows: usize,
}

impl RowSlots {
    /// A row id's page number and slot.
    fn locate(row: RowId) -> (u64, usize) {
        (row.0 / SLOTS_PER_PAGE, (row.0 % SLOTS_PER_PAGE) as usize)
    }

    /// Where page `n` is in the directory, or where it would go.
    fn find(&self, n: u64) -> std::result::Result<usize, usize> {
        let first = self.pages.first().map_or(0, |(at, _)| *at);
        let guess = n.checked_sub(first).and_then(|i| usize::try_from(i).ok());
        match guess.and_then(|i| Some((i, self.pages.get(i)?))) {
            Some((i, (at, _))) if *at == n => Ok(i),
            _ => self.pages.binary_search_by_key(&n, |(at, _)| *at),
        }
    }

    fn get(&self, row: RowId) -> Option<&Chain> {
        let (n, slot) = Self::locate(row);
        let i = self.find(n).ok()?;
        self.pages[i].1[slot].as_ref()
    }

    /// Append `v` to `row`'s chain, allocating the row's page if it has
    /// none yet.
    fn push(&mut self, row: RowId, v: Version) {
        let (n, slot) = Self::locate(row);
        let i = self.find(n).unwrap_or_else(|i| {
            let page = (0..SLOTS_PER_PAGE).map(|_| None).collect();
            self.pages.insert(i, (n, page));
            i
        });
        match &mut self.pages[i].1[slot] {
            Some(chain) => chain.push(v),
            empty => {
                *empty = Some(Chain::One(v));
                self.rows += 1;
            }
        }
    }

    /// Every chain, in row-id order.
    fn iter(&self) -> impl Iterator<Item = (RowId, &Chain)> + '_ {
        self.pages.iter().flat_map(|(n, page)| {
            let base = n * SLOTS_PER_PAGE;
            (page.iter().enumerate())
                .filter_map(move |(i, slot)| Some((RowId(base + i as u64), slot.as_ref()?)))
        })
    }

    /// Keep the chains `keep` returns `true` for and empty the others'
    /// slots, in row-id order; pages left with no chain are freed.
    fn retain(&mut self, mut keep: impl FnMut(&mut Chain) -> bool) {
        let mut emptied = 0;
        self.pages.retain_mut(|(_, page)| {
            let mut occupied = false;
            for slot in page.iter_mut() {
                let Some(chain) = slot else { continue };
                if keep(chain) {
                    occupied = true;
                } else {
                    *slot = None;
                    emptied += 1;
                }
            }
            occupied
        });
        self.rows -= emptied;
    }

    /// Heap bytes of the directory and the pages.
    fn resident_bytes(&self) -> usize {
        let page = SLOTS_PER_PAGE as usize * std::mem::size_of::<Option<Chain>>();
        self.pages.capacity() * std::mem::size_of::<(u64, Page)>() + self.pages.len() * page
    }
}

/// Heap bytes a table holds in RAM, by structure: what each asks of the
/// allocator (tree nodes counted by [`crate::util`]'s model), not what
/// the allocator rounds it to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentBytes {
    /// Packed rows, one allocation per `Put` version.
    pub rows: u64,
    /// The row slots' pages and directory, and the chains that spilled
    /// out of their slots.
    pub chains: u64,
    /// Secondary indexes: trees, keys and row-id sets.
    pub indexes: u64,
}

impl ResidentBytes {
    pub fn total(&self) -> u64 {
        self.rows + self.chains + self.indexes
    }
}

/// Result of a pushed-down scan: matching rows plus read accounting.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Matching rows in row-id order (shared handles, nothing copied).
    pub rows: Vec<(RowId, SharedRow)>,
    /// Visible rows the scan examined.
    pub scanned: u64,
    /// Examined rows rejected by the predicate (never materialized).
    pub skipped: u64,
}

/// A table: schema, version chains, secondary indexes, row id allocator.
#[derive(Debug)]
pub struct TableStore {
    id: TableId,
    def: TableDef,
    chains: RowSlots,
    /// Stored versions, live and superseded: counted by `apply` and
    /// `vacuum`, so reading it walks nothing.
    versions: usize,
    indexes: Vec<IndexStore>,
    next_row_id: AtomicU64,
}

impl TableStore {
    pub fn new(id: TableId, def: TableDef) -> Self {
        let indexes = (def.indexes.iter())
            .map(|idx| IndexStore::new(idx.clone(), &def))
            .collect();
        TableStore {
            id,
            def,
            chains: RowSlots::default(),
            versions: 0,
            indexes,
            next_row_id: AtomicU64::new(1),
        }
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    pub fn definition(&self) -> &TableDef {
        &self.def
    }

    /// Allocate a fresh row id. Safe under a shared (read) lock.
    pub fn allocate_row_id(&self) -> RowId {
        RowId(self.next_row_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The next row id this table would hand out (checkpoint watermark).
    pub fn row_id_watermark(&self) -> u64 {
        self.next_row_id.load(Ordering::Relaxed)
    }

    /// Bump the allocator so it never hands out ids ≤ `seen` (recovery).
    pub fn observe_row_id(&self, seen: RowId) {
        let mut cur = self.next_row_id.load(Ordering::Relaxed);
        while cur <= seen.0 {
            match self.next_row_id.compare_exchange(
                cur,
                seen.0 + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The row version visible at snapshot `ts`, if any.
    pub fn visible(&self, row: RowId, ts: Ts) -> Option<&SharedRow> {
        visible_at(self.chains.get(row)?.versions(), ts)
    }

    /// Commit timestamp of the newest version of `row`, if the row has any.
    pub fn newest_commit_ts(&self, row: RowId) -> Option<Ts> {
        self.chains.get(row)?.versions().last().map(|v| v.commit_ts)
    }

    /// Append a committed version and maintain indexes.
    ///
    /// Callers guarantee `ts` is greater than every timestamp already in the
    /// chain (commit order is serialized by the transaction manager).
    pub fn apply(&mut self, row: RowId, ts: Ts, op: VersionOp) {
        debug_assert!(
            self.newest_commit_ts(row).is_none_or(|newest| newest < ts),
            "version timestamps must be monotonically increasing per row"
        );
        if let VersionOp::Put(r) = &op {
            for idx in &mut self.indexes {
                idx.insert(row, r);
            }
        }
        self.chains.push(row, Version { commit_ts: ts, op });
        self.versions += 1;
        self.observe_row_id(row);
    }

    /// Every version of `row` RAM holds, oldest first.
    pub fn versions(&self, row: RowId) -> &[Version] {
        self.chains.get(row).map_or(&[], Chain::versions)
    }

    /// Iterate all rows visible at `ts`.
    pub fn scan_visible(&self, ts: Ts) -> impl Iterator<Item = (RowId, &SharedRow)> + '_ {
        self.chains
            .iter()
            .filter_map(move |(id, chain)| Some((id, visible_at(chain.versions(), ts)?)))
    }

    /// Pushed-down scan: plan an access path for `pred` against this
    /// table's schema, walk it, and return only the matching rows as
    /// shared handles. Non-matching rows are counted (`skipped`) but
    /// never cloned or collected — the predicate runs against the stored
    /// version in place.
    pub fn scan_matching(&self, ts: Ts, pred: &Predicate) -> Result<ScanOutcome> {
        let mut out = ScanOutcome::default();
        let rows = &mut out.rows;
        let (scanned, skipped, row_id_ordered) =
            self.visit_matching(ts, pred, |rid, row| rows.push((rid, row.clone())))?;
        if !row_id_ordered {
            // Callers expect row-id order for merge with the write-set
            // overlay.
            out.rows.sort_unstable_by_key(|(rid, _)| *rid);
        }
        out.scanned = scanned;
        out.skipped = skipped;
        Ok(out)
    }

    /// The accounting of [`TableStore::scan_matching`] without its rows:
    /// `(scanned, skipped)`, so `scanned - skipped` rows match. Nothing is
    /// cloned or collected.
    pub fn count_matching(&self, ts: Ts, pred: &Predicate) -> Result<(u64, u64)> {
        let (scanned, skipped, _) = self.visit_matching(ts, pred, |_, _| {})?;
        Ok((scanned, skipped))
    }

    /// Walk the access path planned for `pred`, handing each visible row
    /// the predicate accepts to `on_match`. Returns `(scanned, skipped,
    /// row_id_ordered)`: visible rows examined, rows the predicate
    /// rejected, and whether matches arrived in row-id order (an index
    /// walk is key-ordered instead).
    fn visit_matching(
        &self,
        ts: Ts,
        pred: &Predicate,
        mut on_match: impl FnMut(RowId, &SharedRow),
    ) -> Result<(u64, u64, bool)> {
        let (mut scanned, mut skipped) = (0u64, 0u64);
        let mut examine = |rid: RowId, row: &SharedRow| -> Result<()> {
            scanned += 1;
            if pred.eval(&self.def, row)? {
                on_match(rid, row);
            } else {
                skipped += 1;
            }
            Ok(())
        };
        let row_id_ordered = match plan_access(&self.def, pred) {
            AccessPath::FullScan => {
                for (rid, row) in self.scan_visible(ts) {
                    examine(rid, row)?;
                }
                true
            }
            AccessPath::IndexPrefix { index_pos, prefix } => {
                let idx = self
                    .indexes
                    .get(index_pos)
                    .ok_or_else(|| StorageError::Internal("planner chose missing index".into()))?;
                // A row sits under several keys of the prefix when its
                // versions differ in the remaining index columns, but its
                // visible version carries one of them: re-verifying the
                // entry's key yields each row once, with nothing to
                // remember.
                for (key, rid) in idx.entries(idx.prefix(&prefix).as_ref()) {
                    if let Some(row) = self.visible(rid, ts) {
                        if idx.key_matches(row, key) {
                            examine(rid, row)?;
                        }
                    }
                }
                false
            }
        };
        Ok((scanned, skipped, row_id_ordered))
    }

    /// Iterate every version of every row, in row-id order, each row's
    /// oldest first.
    pub fn iter_versions(&self) -> impl Iterator<Item = (RowId, &Version)> + '_ {
        self.chains
            .iter()
            .flat_map(|(id, chain)| chain.versions().iter().map(move |v| (id, v)))
    }

    /// The index at position `pos` (schema order).
    pub fn index(&self, pos: usize) -> Option<&IndexStore> {
        self.indexes.get(pos)
    }

    /// Find an index by name.
    pub fn index_by_name(&self, name: &str) -> Option<(usize, &IndexStore)> {
        self.indexes
            .iter()
            .enumerate()
            .find(|(_, i)| i.definition().name == name)
    }

    pub fn indexes(&self) -> &[IndexStore] {
        &self.indexes
    }

    /// Would committing `key` into unique index `pos` at `TS_LATEST`
    /// conflict with a row other than the excluded ones?
    pub fn unique_conflict(
        &self,
        pos: usize,
        key: &IndexKey,
        excluded: &dyn Fn(RowId) -> bool,
    ) -> bool {
        let idx = &self.indexes[pos];
        idx.entries(Some(&idx.exactly(key))).any(|(_, rid)| {
            if excluded(rid) {
                return false;
            }
            self.visible(rid, TS_LATEST)
                .is_some_and(|row| idx.key_matches(row, key.as_bytes()))
        })
    }

    /// Number of rows visible at `ts`.
    pub fn count_visible(&self, ts: Ts) -> usize {
        self.scan_visible(ts).count()
    }

    /// Total number of stored versions (live + superseded).
    pub fn version_count(&self) -> usize {
        self.versions
    }

    /// Number of distinct rows with at least one stored version.
    /// `version_count() - chain_count()` bounds what vacuum can reclaim.
    pub fn chain_count(&self) -> usize {
        self.chains.rows
    }

    /// Pages of row slots allocated: one for every [`SLOTS_PER_PAGE`]
    /// ids that hold a row, however far apart.
    pub fn slot_pages(&self) -> usize {
        self.chains.pages.len()
    }

    /// What this table holds in RAM.
    pub fn resident_bytes(&self) -> ResidentBytes {
        let mut rows = 0;
        let mut chains = self.chains.resident_bytes();
        for (_, chain) in self.chains.iter() {
            chains += chain.spilled_bytes();
            for v in chain.versions() {
                if let VersionOp::Put(row) = &v.op {
                    rows += row.resident_bytes();
                }
            }
        }
        let indexes: usize = self.indexes.iter().map(IndexStore::resident_bytes).sum();
        ResidentBytes {
            rows: rows as u64,
            chains: chains as u64,
            indexes: indexes as u64,
        }
    }

    /// Prune versions no snapshot at or after `horizon` can see, then
    /// rebuild indexes from the surviving versions.
    ///
    /// A version is prunable if a newer version exists with
    /// `commit_ts <= horizon` (it is superseded for every live snapshot).
    /// A chain whose sole survivor is a `Delete` older than the horizon is
    /// removed entirely.
    pub fn vacuum(&mut self, horizon: Ts) -> usize {
        let mut pruned = 0;
        self.chains.retain(|chain| {
            // Index of the newest version visible at the horizon.
            // Everything newer than the horizon (None) keeps all: 0.
            let keep_from = chain
                .versions()
                .iter()
                .rposition(|v| v.commit_ts <= horizon)
                .unwrap_or_default();
            if keep_from > 0 {
                pruned += keep_from;
                chain.drop_oldest(keep_from);
            }
            let sole_dead = matches!(
                chain.versions(),
                [Version { commit_ts, op: VersionOp::Delete }] if *commit_ts <= horizon
            );
            if sole_dead {
                pruned += 1;
            }
            !sole_dead
        });
        self.versions -= pruned;
        if pruned > 0 {
            self.rebuild_indexes();
        }
        pruned
    }

    /// Newest version of `row` with `commit_ts <= ts`, tombstones
    /// included. The tiered read path needs the raw version (not just
    /// [`TableStore::visible`]): a RAM tombstone at or below the
    /// snapshot is *authoritative* — the row is absent and the cold
    /// tier must not be consulted.
    pub fn newest_version_at(&self, row: RowId, ts: Ts) -> Option<&Version> {
        self.chains
            .get(row)?
            .versions()
            .iter()
            .rev()
            .find(|v| v.commit_ts <= ts)
    }

    /// Newest version per row with `commit_ts <= ts`, tombstones
    /// included, in row-id order — the RAM side of a tiered scan merge,
    /// and at [`TS_LATEST`] each row's last version: what a checkpoint
    /// keeps.
    pub fn newest_versions_at(&self, ts: Ts) -> impl Iterator<Item = (RowId, &Version)> {
        self.chains.iter().filter_map(move |(rid, chain)| {
            chain
                .versions()
                .iter()
                .rev()
                .find(|v| v.commit_ts <= ts)
                .map(|v| (rid, v))
        })
    }

    /// Collect exactly what [`TableStore::vacuum`] at `horizon` would
    /// prune, as WAL ops ready for cold demotion, skipping versions the
    /// cold tier already holds (those superseded by a version at or
    /// below `already_cold` — the cold floor — plus sole tombstones at
    /// or below it).
    ///
    /// With `horizon` = the commit watermark this doubles as the
    /// checkpoint's history collector: every non-newest version plus
    /// newest tombstones, minus what previous demotions covered.
    pub(crate) fn collect_demotable(
        &self,
        horizon: Ts,
        already_cold: Ts,
        out: &mut Vec<(TableId, RowId, Ts, crate::wal::WalOp)>,
    ) {
        use crate::wal::WalOp;
        for (rid, chain) in self.chains.iter() {
            let chain = chain.versions();
            let keep_from = chain
                .iter()
                .rposition(|v| v.commit_ts <= horizon)
                .unwrap_or_default();
            for i in 0..keep_from {
                if chain[i + 1].commit_ts <= already_cold {
                    continue;
                }
                let op = match &chain[i].op {
                    VersionOp::Put(r) => WalOp::Put(r.clone()),
                    VersionOp::Delete => WalOp::Delete,
                };
                out.push((self.id, rid, chain[i].commit_ts, op));
            }
            let Some(last) = chain.last() else { continue };
            let sole_dead = keep_from == chain.len() - 1
                && last.commit_ts <= horizon
                && matches!(last.op, VersionOp::Delete);
            if sole_dead && last.commit_ts > already_cold {
                out.push((self.id, rid, last.commit_ts, WalOp::Delete));
            }
        }
    }

    fn rebuild_indexes(&mut self) {
        for idx in &mut self.indexes {
            idx.clear();
        }
        for (rid, chain) in self.chains.iter() {
            for v in chain.versions() {
                if let VersionOp::Put(row) = &v.op {
                    for idx in &mut self.indexes {
                        idx.insert(rid, row);
                    }
                }
            }
        }
    }
}

/// The row of the newest version in `chain` with `commit_ts <= ts`,
/// unless that version is a tombstone.
fn visible_at(chain: &[Version], ts: Ts) -> Option<&SharedRow> {
    match &chain.iter().rev().find(|v| v.commit_ts <= ts)?.op {
        VersionOp::Put(row) => Some(row),
        VersionOp::Delete => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::{DataType, Value};

    fn table() -> TableStore {
        let def = TableDef::new("t")
            .column("k", DataType::Id)
            .column("v", DataType::Text)
            .index("by_k", &["k"])
            .unique_index("by_v", &["v"]);
        TableStore::new(TableId(0), def)
    }

    fn row(k: u64, v: &str) -> SharedRow {
        Row::new(vec![Value::Id(k), Value::Text(v.into())]).into_shared()
    }

    fn put(k: u64, v: &str) -> VersionOp {
        VersionOp::Put(row(k, v))
    }

    /// Rows with a version under `key` in the index named `name`.
    fn under(t: &TableStore, name: &str, key: &[Value]) -> usize {
        let (_, idx) = t.index_by_name(name).unwrap();
        idx.entries(idx.prefix(key).as_ref()).count()
    }

    #[test]
    fn visibility_follows_snapshots() {
        let mut t = table();
        let r = t.allocate_row_id();
        t.apply(r, 5, put(1, "a"));
        t.apply(r, 9, put(1, "b"));
        assert!(t.visible(r, 4).is_none());
        assert_eq!(
            t.visible(r, 5).unwrap().get(1).unwrap().as_text(),
            Some("a")
        );
        assert_eq!(
            t.visible(r, 8).unwrap().get(1).unwrap().as_text(),
            Some("a")
        );
        assert_eq!(
            t.visible(r, 9).unwrap().get(1).unwrap().as_text(),
            Some("b")
        );
        t.apply(r, 12, VersionOp::Delete);
        assert!(t.visible(r, 12).is_none());
        assert!(t.visible(r, 11).is_some());
        assert_eq!(t.newest_commit_ts(r), Some(12));
    }

    #[test]
    fn scan_visible_filters_deleted() {
        let mut t = table();
        let a = t.allocate_row_id();
        let b = t.allocate_row_id();
        t.apply(a, 1, put(1, "a"));
        t.apply(b, 2, put(2, "b"));
        t.apply(a, 3, VersionOp::Delete);
        assert_eq!(t.count_visible(2), 2);
        assert_eq!(t.count_visible(3), 1);
        let alive: Vec<RowId> = t.scan_visible(3).map(|(id, _)| id).collect();
        assert_eq!(alive, vec![b]);
    }

    #[test]
    fn row_id_allocation_is_monotonic_and_recovers() {
        let t = table();
        let a = t.allocate_row_id();
        let b = t.allocate_row_id();
        assert!(b > a);
        t.observe_row_id(RowId(100));
        assert!(t.allocate_row_id() > RowId(100));
        // Observing an old id does not move the allocator backwards.
        t.observe_row_id(RowId(3));
        assert!(t.allocate_row_id() > RowId(100));
    }

    #[test]
    fn index_entries_cover_all_versions() {
        let mut t = table();
        let r = t.allocate_row_id();
        t.apply(r, 1, put(1, "a"));
        t.apply(r, 2, put(2, "a2"));
        let (pos, _) = t.index_by_name("by_k").unwrap();
        assert_eq!(pos, 0);
        // Both the old and new key point at the row (superset semantics).
        assert_eq!(under(&t, "by_k", &[Value::Id(1)]), 1);
        assert_eq!(under(&t, "by_k", &[Value::Id(2)]), 1);
    }

    #[test]
    fn unique_conflict_sees_only_latest_state() {
        let mut t = table();
        let a = t.allocate_row_id();
        t.apply(a, 1, put(1, "taken"));
        let (upos, idx) = t.index_by_name("by_v").unwrap();
        let key = idx.key_of(&row(9, "taken"));
        let other = idx.key_of(&row(9, "other"));
        assert!(t.unique_conflict(upos, &key, &|_| false));
        // Excluding the row that holds the key clears the conflict.
        assert!(!t.unique_conflict(upos, &key, &|r| r == a));
        // After the row is updated away from the key, no conflict remains.
        t.apply(a, 2, put(1, "other"));
        assert!(!t.unique_conflict(upos, &key, &|_| false));
        // Deleted rows do not hold keys.
        t.apply(a, 3, VersionOp::Delete);
        assert!(!t.unique_conflict(upos, &other, &|_| false));
    }

    #[test]
    fn vacuum_prunes_superseded_versions() {
        let mut t = table();
        let r = t.allocate_row_id();
        t.apply(r, 1, put(1, "a"));
        t.apply(r, 2, put(1, "b"));
        t.apply(r, 3, put(1, "c"));
        assert_eq!(t.version_count(), 3);
        let pruned = t.vacuum(2);
        assert_eq!(pruned, 1); // version @1 superseded by @2 <= horizon
        assert_eq!(t.version_count(), 2);
        // Visibility at/after the horizon is unchanged.
        assert_eq!(
            t.visible(r, 2).unwrap().get(1).unwrap().as_text(),
            Some("b")
        );
        assert_eq!(
            t.visible(r, 3).unwrap().get(1).unwrap().as_text(),
            Some("c")
        );
    }

    #[test]
    fn a_prefix_scan_yields_a_row_once_whatever_its_versions_carry() {
        let def = TableDef::new("t")
            .column("k", DataType::Id)
            .column("v", DataType::Text)
            .index("by_k_v", &["k", "v"]);
        let mut t = TableStore::new(TableId(0), def);
        let r = t.allocate_row_id();
        t.apply(r, 1, put(1, "a"));
        // The same prefix, another key: two entries name the row.
        t.apply(r, 2, put(1, "b"));
        let other = t.allocate_row_id();
        t.apply(other, 3, put(1, "c"));
        let pred = Predicate::Eq("k".into(), Value::Id(1));
        assert_eq!(t.count_matching(TS_LATEST, &pred).unwrap(), (2, 0));
        assert_eq!(t.count_matching(1, &pred).unwrap(), (1, 0));
        let rows = t.scan_matching(TS_LATEST, &pred).unwrap().rows;
        let ids: Vec<RowId> = rows.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(ids, [r, other]);
    }

    #[test]
    fn vacuum_removes_dead_rows_and_rebuilds_indexes() {
        let mut t = table();
        let r = t.allocate_row_id();
        t.apply(r, 1, put(1, "a"));
        t.apply(r, 2, VersionOp::Delete);
        let pruned = t.vacuum(10);
        assert_eq!(pruned, 2);
        assert_eq!(t.version_count(), 0);
        let (_, idx) = t.index_by_name("by_k").unwrap();
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn a_chain_spills_on_its_second_version_and_vacuum_takes_the_vec_back() {
        let mut t = table();
        let r = t.allocate_row_id();
        t.apply(r, 1, put(1, "a"));
        assert!(matches!(t.chains.get(r), Some(Chain::One(_))));
        // Nothing behind the slot yet: the chains are the page and its
        // directory entry.
        let page = t.chains.resident_bytes() as u64;
        assert_eq!(t.resident_bytes().chains, page);
        t.apply(r, 2, put(1, "b"));
        t.apply(r, 3, put(1, "c"));
        assert!(matches!(t.chains.get(r), Some(Chain::Many(vs)) if vs.len() == 3));
        assert_eq!(t.versions(r).len(), 3);
        assert_eq!(t.vacuum(3), 2);
        assert!(matches!(t.chains.get(r), Some(Chain::One(v)) if v.commit_ts == 3));
        assert_eq!(t.resident_bytes().chains, page);
        assert_eq!(
            t.visible(r, 3).unwrap().get(1).unwrap().as_text(),
            Some("c")
        );
    }

    #[test]
    fn a_far_row_id_costs_one_page_and_vacuum_frees_emptied_pages() {
        let mut t = table();
        let far = RowId(1 << 40);
        for (ts, id) in [(1, RowId(1)), (2, far), (3, RowId(SLOTS_PER_PAGE))] {
            t.apply(id, ts, put(ts, "v"));
        }
        assert_eq!(
            (t.slot_pages(), t.chain_count(), t.version_count()),
            (3, 3, 3)
        );
        let ids: Vec<RowId> = t.scan_visible(TS_LATEST).map(|(id, _)| id).collect();
        assert_eq!(ids, [RowId(1), RowId(SLOTS_PER_PAGE), far]);
        assert!(t.visible(RowId((1 << 40) + 1), TS_LATEST).is_none());
        assert!(t.visible(RowId(SLOTS_PER_PAGE - 1), TS_LATEST).is_none());
        // Emptying the first page leaves the others where they are.
        t.apply(RowId(1), 4, VersionOp::Delete);
        assert_eq!(t.vacuum(4), 2);
        assert_eq!(
            (t.slot_pages(), t.chain_count(), t.version_count()),
            (2, 2, 2)
        );
        assert_eq!(t.newest_commit_ts(far), Some(2));
        assert_eq!(t.newest_commit_ts(RowId(SLOTS_PER_PAGE)), Some(3));
        assert!(t.visible(RowId(1), TS_LATEST).is_none());
    }

    #[test]
    fn vacuum_keeps_versions_newer_than_horizon() {
        let mut t = table();
        let r = t.allocate_row_id();
        t.apply(r, 5, put(1, "a"));
        t.apply(r, 9, put(1, "b"));
        assert_eq!(t.vacuum(3), 0);
        assert_eq!(t.version_count(), 2);
        // A snapshot between the two versions still reads the old one.
        assert_eq!(
            t.visible(r, 7).unwrap().get(1).unwrap().as_text(),
            Some("a")
        );
    }
}
