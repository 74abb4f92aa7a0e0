//! Transactions: snapshot-isolated reads, buffered writes, optimistic
//! commit.
//!
//! A transaction takes its snapshot timestamp at `begin`, reads the world
//! as of that timestamp (plus its own uncommitted writes), and buffers all
//! writes locally. At commit, the engine validates that no other
//! transaction committed a newer version of any written row (first
//! committer wins), checks unique constraints against the then-current
//! state, stages one WAL record, and publishes all versions while
//! holding only the write locks of the tables the transaction touched —
//! commits to disjoint tables run the whole pipeline concurrently, and
//! snapshot visibility is governed by the contiguous-prefix watermark
//! (`crate::commit`). This is exactly the guarantee the TeNDaX
//! papers lean on: each keystroke batch is an ACID transaction, and
//! concurrent editors conflict only when they touch the same rows.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use crate::cold::ColdStore;
use crate::db::Database;
use crate::error::{Result, StorageError};
use crate::index::{EntryRange, IndexKey, IndexStore};
use crate::query::Predicate;
use crate::row::{Row, RowId, SharedRow};
use crate::schema::TableId;
use crate::table::{TableStore, Ts, VersionOp};
use crate::value::Value;
use crate::wal::{WalOp, WalTicket};

/// Transaction identifier (unique per database instance lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A buffered, not-yet-committed write. A row is packed once, when it
/// enters the write set, so commit can hand the *same* allocation to the
/// WAL encoder and the version store; the write set itself stays
/// copy-on-write (an update to a buffered row packs a fresh one and swaps
/// the handle).
///
/// `Patch` is a column update ([`Transaction::set`]): the row is fully
/// materialized against this transaction's snapshot (so reads-through
/// behave exactly like a `Put`), and `fields` lists the column positions
/// written, ascending: the log records only those columns.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    Put(SharedRow),
    Delete,
    Patch { row: SharedRow, fields: Vec<u32> },
}

impl WriteOp {
    /// The row this write makes visible within its own transaction
    /// (`None` for a delete). Patch rows are materialized, so snapshot
    /// reads treat them exactly like puts.
    pub(crate) fn row(&self) -> Option<&SharedRow> {
        match self {
            WriteOp::Put(r) | WriteOp::Patch { row: r, .. } => Some(r),
            WriteOp::Delete => None,
        }
    }
}

/// A captured write-set state; see [`Transaction::savepoint`].
#[derive(Debug, Clone)]
pub struct Savepoint {
    writes: BTreeMap<TableId, BTreeMap<RowId, WriteOp>>,
    created: HashSet<(TableId, RowId)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// What a visible commit still owes its caller: the wait for its log
/// record to reach the disk (see [`Transaction::commit_visible`]).
/// Nothing to wait for on an in-memory database or a read-only commit.
///
/// It is released one of two ways. [`Durability::wait`] is the rule:
/// edits, DDL, checkpoints and process steps are acknowledged only once
/// durable. [`Durability::with_next_flush`] is for a commit nobody is
/// told is durable (a read event): it does not wait, and the next flush
/// writes it.
#[derive(Debug)]
#[must_use = "the commit is not durable until this has been waited for"]
pub struct Durability {
    ticket: Option<(Database, WalTicket)>,
}

impl Durability {
    /// A commit with nothing to flush.
    pub fn none() -> Self {
        Durability { ticket: None }
    }

    /// Block until the commit is durable at the database's durability
    /// level. Call it with no locks held.
    pub fn wait(self) -> Result<()> {
        match self.ticket {
            Some((db, ticket)) => db.wal_wait(Some(ticket)),
            None => Ok(()),
        }
    }

    /// Let the commit go without waiting for the disk. Its frame stays in
    /// the group-commit batch and the next flush writes it: a later
    /// commit's wait, a checkpoint's switch, or the log's drop. Until
    /// then a power cut (at `Fsync`) or a process crash (at `Buffered`)
    /// may lose it, and a failed flush is reported to whoever waits for
    /// that flush, not here. The log stays a commit-order prefix, so the
    /// commit survives whenever any later commit does.
    pub fn with_next_flush(self) {
        let Durability { ticket: _ } = self;
    }
}

/// An open transaction. Dropping an active transaction aborts it.
#[derive(Debug)]
pub struct Transaction {
    db: Database,
    id: TxnId,
    snapshot: Ts,
    pub(crate) writes: BTreeMap<TableId, BTreeMap<RowId, WriteOp>>,
    /// Rows this transaction itself inserted (they cannot conflict).
    pub(crate) created: HashSet<(TableId, RowId)>,
    /// Rows the commit depends on without writing them
    /// ([`Transaction::expect_unchanged`]).
    pub(crate) expected: Vec<(TableId, RowId)>,
    state: TxnState,
    /// Table handles this transaction has touched. Repeated reads of the
    /// same table (the per-character hot loop) skip the database's global
    /// table-map lock entirely. A handle pinned here keeps serving the
    /// snapshot even if the table is dropped mid-transaction — exactly
    /// the isolation a snapshot reader expects.
    handles: Mutex<BTreeMap<TableId, Arc<RwLock<TableStore>>>>,
}

impl Transaction {
    pub(crate) fn new(db: Database, id: TxnId, snapshot: Ts) -> Self {
        Transaction {
            db,
            id,
            snapshot,
            writes: BTreeMap::new(),
            created: HashSet::new(),
            expected: Vec::new(),
            state: TxnState::Active,
            handles: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The commit timestamp this transaction reads as of.
    pub fn snapshot_ts(&self) -> Ts {
        self.snapshot
    }

    /// Number of buffered writes.
    pub fn write_count(&self) -> usize {
        self.writes.values().map(BTreeMap::len).sum()
    }

    fn check_active(&self) -> Result<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(StorageError::TxnClosed(self.id))
        }
    }

    fn own_write(&self, table: TableId, row: RowId) -> Option<&WriteOp> {
        self.writes.get(&table).and_then(|m| m.get(&row))
    }

    pub(crate) fn db_handle(&self) -> &Database {
        &self.db
    }

    /// The table's store handle, via the per-transaction cache. Only the
    /// first touch of a table pays the global `tables` map read-lock.
    fn table_handle(&self, table: TableId) -> Result<Arc<RwLock<TableStore>>> {
        let mut cache = self.handles.lock();
        if let Some(h) = cache.get(&table) {
            return Ok(h.clone());
        }
        let h = self.db.table_handle(table)?;
        cache.insert(table, h.clone());
        Ok(h)
    }

    /// Run `f` with shared access to a table, through the handle cache.
    fn with_table<R>(&self, table: TableId, f: impl FnOnce(&TableStore) -> R) -> Result<R> {
        let h = self.table_handle(table)?;
        let guard = h.read();
        Ok(f(&guard))
    }

    // ---------------------------------------------------------------- reads

    /// Read a row by id, seeing this transaction's own writes. The
    /// returned handle shares the stored row — no values are copied.
    pub fn get(&self, table: TableId, row: RowId) -> Result<Option<SharedRow>> {
        self.check_active()?;
        self.db.note_point_get();
        if let Some(op) = self.own_write(table, row) {
            return Ok(op.row().cloned());
        }
        // RAM first. Any version at or below the snapshot — put *or*
        // tombstone — is authoritative: demotion prunes a version only
        // after a newer one at or below the cold floor supersedes it,
        // so a surviving RAM version is always the newest for us.
        let ram = self.with_table(table, |t| {
            t.newest_version_at(row, self.snapshot)
                .map(|v| match &v.op {
                    VersionOp::Put(r) => Some(r.clone()),
                    VersionOp::Delete => None,
                })
        })?;
        if let Some(outcome) = ram {
            return Ok(outcome);
        }
        // RAM holds nothing for this snapshot. Only snapshots below the
        // cold floor can have demoted history; the floor is loaded
        // *after* the RAM read, so a concurrent demotion's prune can
        // never be missed (the floor is raised before anything is
        // pruned).
        let Some(cold) = self.db.cold_store() else {
            return Ok(None);
        };
        if self.snapshot >= cold.floor() {
            return Ok(None);
        }
        match cold.lookup(table, row, self.snapshot)? {
            Some((_, WalOp::Put(r))) => Ok(Some(r)),
            Some((_, WalOp::Delete)) | None => Ok(None),
            Some((_, WalOp::Patch { .. })) => {
                Err(StorageError::Internal("cold run holds a patch op".into()))
            }
        }
    }

    /// Every committed row visible at this snapshot once the cold tier
    /// is merged in: RAM's newest version per row wins (tombstones
    /// suppress the row), the cold tier fills rows whose relevant
    /// history was demoted. Only called when `snapshot < cold.floor()`.
    fn tiered_visible_rows(
        &self,
        table: TableId,
        cold: &ColdStore,
    ) -> Result<Vec<(RowId, SharedRow)>> {
        let mut merged: BTreeMap<RowId, Option<SharedRow>> = self.with_table(table, |t| {
            t.newest_versions_at(self.snapshot)
                .map(|(rid, v)| {
                    let row = match &v.op {
                        VersionOp::Put(r) => Some(r.clone()),
                        VersionOp::Delete => None,
                    };
                    (rid, row)
                })
                .collect()
        })?;
        for (rid, (_, op)) in cold.scan_table(table, self.snapshot)? {
            let row = match op {
                WalOp::Put(r) => Some(r),
                WalOp::Delete => None,
                WalOp::Patch { .. } => {
                    return Err(StorageError::Internal("cold run holds a patch op".into()))
                }
            };
            merged.entry(rid).or_insert(row);
        }
        Ok(merged
            .into_iter()
            .filter_map(|(rid, row)| row.map(|r| (rid, r)))
            .collect())
    }

    /// All rows matching `pred`, via the planned access path, with this
    /// transaction's own writes overlaid. Results are in row-id order.
    ///
    /// Predicate evaluation is pushed down into the table store
    /// ([`TableStore::scan_matching`]): non-matching committed rows are
    /// counted but never materialized, and each returned row is a shared
    /// handle produced exactly once.
    pub fn scan(&self, table: TableId, pred: &Predicate) -> Result<Vec<(RowId, SharedRow)>> {
        self.check_active()?;
        let outcome = self.with_table(table, |t| t.scan_matching(self.snapshot, pred))??;
        self.db.note_scan(outcome.scanned, outcome.skipped);
        let mut committed = outcome.rows;
        if let Some(cold) = self.db.cold_store() {
            if self.snapshot < cold.floor() {
                // The snapshot predates the cold floor, so RAM alone
                // may be incomplete: rebuild from the merged tiers.
                let def = self.db.table_def(table)?;
                let mut rows = Vec::new();
                for (rid, row) in self.tiered_visible_rows(table, cold)? {
                    if pred.eval(&def, &row)? {
                        rows.push((rid, row));
                    }
                }
                committed = rows;
            }
        }
        let Some(ws) = self.writes.get(&table).filter(|ws| !ws.is_empty()) else {
            return Ok(committed);
        };
        // Merge the committed rows (row-id ordered) with the own-write
        // overlay (BTreeMap, also ordered): a two-pointer pass that
        // yields each row exactly once.
        let def = self.db.table_def(table)?;
        let mut merged = Vec::with_capacity(committed.len() + ws.len());
        let mut own = ws.iter().peekable();
        let emit_own = |rid: RowId, op: &WriteOp, out: &mut Vec<(RowId, SharedRow)>| {
            if let Some(r) = op.row() {
                if pred.eval(&def, r)? {
                    out.push((rid, r.clone()));
                }
            }
            Ok::<_, StorageError>(())
        };
        for (rid, row) in committed {
            while let Some(&(&wrid, op)) = own.peek() {
                if wrid >= rid {
                    break;
                }
                emit_own(wrid, op, &mut merged)?;
                own.next();
            }
            match own.peek() {
                Some(&(&wrid, op)) if wrid == rid => {
                    // Own write supersedes the committed version.
                    emit_own(wrid, op, &mut merged)?;
                    own.next();
                }
                _ => merged.push((rid, row)),
            }
        }
        for (&wrid, op) in own {
            emit_own(wrid, op, &mut merged)?;
        }
        Ok(merged)
    }

    /// The cold store, when this snapshot predates its floor — RAM alone
    /// may then no longer hold every version the snapshot can see. Load
    /// this *after* the RAM read it qualifies (see [`Transaction::get`]):
    /// the floor is raised before anything is pruned, so a prune the read
    /// raced is never missed.
    fn cold_below_floor(&self) -> Option<&ColdStore> {
        self.db
            .cold_store()
            .filter(|cold| self.snapshot < cold.floor())
    }

    /// This transaction's buffered writes on `table`, if it has any.
    fn own_writes(&self, table: TableId) -> Option<&BTreeMap<RowId, WriteOp>> {
        self.writes.get(&table).filter(|ws| !ws.is_empty())
    }

    /// Count rows matching `pred`. Without own writes on the table (and at
    /// or above the cold floor) the predicate runs against the stored
    /// versions in place and nothing is materialized.
    pub fn count(&self, table: TableId, pred: &Predicate) -> Result<usize> {
        self.check_active()?;
        if self.own_writes(table).is_none() {
            let (scanned, skipped) =
                self.with_table(table, |t| t.count_matching(self.snapshot, pred))??;
            if self.cold_below_floor().is_none() {
                self.db.note_scan(scanned, skipped);
                return Ok((scanned - skipped) as usize);
            }
        }
        Ok(self.scan(table, pred)?.len())
    }

    /// Lookup through a named index (overlay-aware): the rows whose key
    /// is `key`, or — given fewer values than the index has columns —
    /// whose key starts with them. Results are in `(key, row id)` order:
    /// row-id order for a whole key.
    pub fn index_lookup(
        &self,
        table: TableId,
        index: &str,
        key: &[Value],
    ) -> Result<Vec<(RowId, SharedRow)>> {
        self.index_read(table, index, |idx| idx.prefix(key))
    }

    /// Ordered range scan through a named index (overlay-aware): keys
    /// compared as [`Value::total_cmp`] compares key vectors, a shorter
    /// vector below its extensions. Results are ordered by (index key,
    /// row id).
    pub fn index_range(
        &self,
        table: TableId,
        index: &str,
        lo: Bound<&Vec<Value>>,
        hi: Bound<&Vec<Value>>,
    ) -> Result<Vec<(RowId, SharedRow)>> {
        let (lo, hi) = (lo.map(Vec::as_slice), hi.map(Vec::as_slice));
        self.index_read(table, index, |idx| idx.bounds(lo, hi))
    }

    /// The index read behind [`Transaction::index_lookup`] and
    /// [`Transaction::index_range`], over the entries `range` picks out
    /// of the index (`None`: no entry can match).
    ///
    /// Fast path — no own writes on the table, snapshot at or above the
    /// cold floor: one walk of the ordered index straight into the result.
    /// The index holds each `(key, row id)` pair once and iterates in that
    /// order, and a row's visible version carries exactly one key, so
    /// re-verifying the key against the visible row yields every row at
    /// most once, already sorted: no key is kept and nothing is merged.
    ///
    /// Slow path — own writes to overlay, or history demoted to the cold
    /// tier: the committed rows (from that same walk, or from the merged
    /// tiers) are keyed by their packed `(key, row id)` entry and the
    /// write set merged in.
    fn index_read(
        &self,
        table: TableId,
        index: &str,
        range: impl FnOnce(&IndexStore) -> Option<EntryRange>,
    ) -> Result<Vec<(RowId, SharedRow)>> {
        self.check_active()?;
        self.db.note_index_lookup();
        let (mut committed, range) = self.with_table(table, |t| {
            let idx = require_index(t, index)?;
            let range = range(idx);
            // Sized from the entries: one allocation, however many rows.
            let mut out = Vec::with_capacity(idx.entries(range.as_ref()).count());
            for (key, rid) in idx.entries(range.as_ref()) {
                if let Some(row) = t.visible(rid, self.snapshot) {
                    // Re-verify: the index is a superset over versions.
                    if idx.key_matches(row, key) {
                        out.push((rid, row.clone()));
                    }
                }
            }
            Ok::<_, StorageError>((out, range))
        })??;
        let cold = self.cold_below_floor();
        let own = self.own_writes(table);
        if cold.is_none() && own.is_none() {
            return Ok(committed);
        }
        let Some(range) = range else {
            return Ok(Vec::new());
        };
        if let Some(cold) = cold {
            // The index only covers RAM-resident versions; for a snapshot
            // below the cold floor the committed set is every row of the
            // merged tiers (filtered by key below).
            committed = self.tiered_visible_rows(table, cold)?;
        }
        self.with_table(table, |t| {
            let idx = require_index(t, index)?;
            let mut matched: BTreeMap<Vec<u8>, (RowId, SharedRow)> = BTreeMap::new();
            let mut admit = |rid: RowId, row: SharedRow| {
                let mut entry = idx.key_of(&row).as_bytes().to_vec();
                entry.extend_from_slice(&rid.0.to_be_bytes());
                if range.contains(&entry) {
                    matched.insert(entry, (rid, row));
                }
            };
            for (rid, row) in committed {
                // A buffered write supersedes the committed version.
                if !own.is_some_and(|ws| ws.contains_key(&rid)) {
                    admit(rid, row);
                }
            }
            for (&rid, op) in own.into_iter().flatten() {
                if let Some(row) = op.row() {
                    admit(rid, row.clone());
                }
            }
            Ok(matched.into_values().collect())
        })?
    }

    /// The greatest index entry under `prefix` strictly below the key
    /// `before` (descending cursor). Returns `(key, row_id, row)` —
    /// overlay-aware.
    ///
    /// Repeated calls with `before = Some(&previous_key)` walk an index
    /// newest-first without materializing the whole range; with a
    /// `(doc, ts)`-style index this is how "most recent matching X"
    /// queries stay logarithmic. The key is packed: a cursor to hand
    /// back, not to read.
    pub fn index_prev(
        &self,
        table: TableId,
        index: &str,
        prefix: &[Value],
        before: Option<&IndexKey>,
    ) -> Result<Option<(IndexKey, RowId, SharedRow)>> {
        self.check_active()?;
        self.db.note_index_lookup();
        // The prefix's entries, capped below the cursor; `None` when
        // no key can qualify.
        let range = self.with_table(table, |t| {
            let range = require_index(t, index)?.prefix(prefix);
            Ok::<_, StorageError>(match before {
                Some(before) => range.and_then(|r| r.below(before)),
                None => range,
            })
        })??;
        let Some(range) = range else {
            return Ok(None);
        };
        // Committed candidate: newest visible entry, skipping rows this
        // transaction has overwritten (their committed key is stale).
        let mut committed = self.with_table(table, |t| {
            let idx = require_index(t, index)?;
            for (key, rid) in idx.entries(Some(&range)).rev() {
                if self.own_write(table, rid).is_some() {
                    continue;
                }
                if let Some(row) = t.visible(rid, self.snapshot) {
                    if idx.key_matches(row, key) {
                        return Ok::<_, StorageError>(Some((idx.key_of(row), rid, row.clone())));
                    }
                }
            }
            Ok(None)
        })??;
        if let Some(cold) = self.cold_below_floor() {
            // Snapshot below the cold floor: rebuild the committed
            // candidate from the merged tiers (the in-RAM index no
            // longer covers every visible version).
            let rows = self.tiered_visible_rows(table, cold)?;
            let rows = rows
                .into_iter()
                .filter(|(rid, _)| self.own_write(table, *rid).is_none());
            committed = self.greatest_key_in(table, index, &range, rows)?;
        }
        // Own-write candidate with the greatest qualifying key.
        let own = match self.writes.get(&table) {
            None => None,
            Some(ws) => {
                let rows = ws
                    .iter()
                    .filter_map(|(&rid, op)| Some((rid, op.row()?.clone())));
                self.greatest_key_in(table, index, &range, rows)?
            }
        };
        Ok(match (committed, own) {
            (Some(c), Some(o)) => Some(if o.0 >= c.0 { o } else { c }),
            (c, o) => c.or(o),
        })
    }

    /// Of `rows`, the first with the greatest key among those whose key
    /// falls in `range`.
    fn greatest_key_in(
        &self,
        table: TableId,
        index: &str,
        range: &EntryRange,
        rows: impl Iterator<Item = (RowId, SharedRow)>,
    ) -> Result<Option<(IndexKey, RowId, SharedRow)>> {
        self.with_table(table, |t| {
            let idx = require_index(t, index)?;
            let mut best: Option<(IndexKey, RowId, SharedRow)> = None;
            for (rid, row) in rows {
                let key = idx.key_of(&row);
                if range.contains(key.as_bytes())
                    && best.as_ref().is_none_or(|(bk, _, _)| key > *bk)
                {
                    best = Some((key, rid, row));
                }
            }
            Ok(best)
        })?
    }

    // --------------------------------------------------------------- writes

    /// Insert a new row, returning its id.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<RowId> {
        self.check_active()?;
        let rid = self.with_table(table, |t| {
            t.definition().validate_row(row.values())?;
            Ok::<_, StorageError>(t.allocate_row_id())
        })??;
        self.writes
            .entry(table)
            .or_default()
            .insert(rid, WriteOp::Put(row.into_shared()));
        self.created.insert((table, rid));
        Ok(rid)
    }

    /// Replace an existing (visible) row wholesale.
    pub fn update(&mut self, table: TableId, row: RowId, new_row: Row) -> Result<()> {
        self.check_active()?;
        if self.get(table, row)?.is_none() {
            return Err(self.not_found(table));
        }
        self.with_table(table, |t| t.definition().validate_row(new_row.values()))??;
        self.writes
            .entry(table)
            .or_default()
            .insert(row, WriteOp::Put(new_row.into_shared()));
        Ok(())
    }

    /// Update named columns of an existing (visible) row, leaving the
    /// others unchanged. The stored values passed this schema when they
    /// were written: only the new ones are checked, and the row goes from
    /// packed to packed. A row this transaction inserted or replaced stays
    /// a whole-row write; any other is logged as the columns it changed.
    pub fn set(&mut self, table: TableId, row: RowId, updates: &[(&str, Value)]) -> Result<()> {
        self.check_active()?;
        let current = self.get(table, row)?.ok_or_else(|| self.not_found(table))?;
        let (new_row, mut fields) = self.with_table(table, |t| {
            let def = t.definition();
            let mut fields = Vec::with_capacity(updates.len());
            let mut changes = Vec::with_capacity(updates.len());
            for (col, val) in updates {
                let pos = def.require_column(col)?;
                def.validate_value(pos, val)?;
                fields.push(pos as u32);
                changes.push((pos, val.view()));
            }
            Ok::<_, StorageError>((current.with_updates(&changes), fields))
        })??;
        use std::collections::btree_map::Entry;
        match self.writes.entry(table).or_default().entry(row) {
            Entry::Occupied(mut e) => match e.get_mut() {
                WriteOp::Put(r) => *r = new_row,
                WriteOp::Patch { row: r, fields: f } => {
                    *r = new_row;
                    f.append(&mut fields);
                    f.sort_unstable();
                    f.dedup();
                }
                // `get` above saw the row, so a buffered delete is impossible.
                WriteOp::Delete => unreachable!("set after delete"),
            },
            Entry::Vacant(e) => {
                fields.sort_unstable();
                fields.dedup();
                e.insert(WriteOp::Patch {
                    row: new_row,
                    fields,
                });
            }
        }
        Ok(())
    }

    /// Delete a visible row.
    pub fn delete(&mut self, table: TableId, row: RowId) -> Result<()> {
        self.check_active()?;
        if self.get(table, row)?.is_none() {
            return Err(self.not_found(table));
        }
        if self.created.remove(&(table, row)) {
            // Inserted by this very transaction: the write simply vanishes.
            if let Some(ws) = self.writes.get_mut(&table) {
                ws.remove(&row);
            }
            return Ok(());
        }
        self.writes
            .entry(table)
            .or_default()
            .insert(row, WriteOp::Delete);
        Ok(())
    }

    /// Make the commit depend on `row` of `table` as this transaction's
    /// snapshot sees it, without writing it: the commit fails with
    /// [`StorageError::WriteConflict`] unless the row's newest version is
    /// still a put at or below the snapshot — a row changed, deleted or
    /// vacuumed away, before the snapshot or after it, fails — or the
    /// transaction inserted the row itself. The committed expectation is
    /// then held against later commits: another expectation of the row,
    /// or a delete of it, from a snapshot older than this commit fails
    /// too. So of two commits that expect one row, the second began after
    /// the first committed, and a row that a commit expected is never
    /// deleted by a transaction that did not see that commit.
    ///
    /// The check runs at commit, under the table locks the write check
    /// holds. The record is kept in RAM, pruned below the oldest running
    /// snapshot, and adds no version, no log record and nothing a commit
    /// observer sees. A transaction that writes nothing checks nothing,
    /// and a rollback to a savepoint keeps every expectation.
    pub fn expect_unchanged(&mut self, table: TableId, row: RowId) -> Result<()> {
        self.check_active()?;
        self.expected.push((table, row));
        Ok(())
    }

    fn not_found(&self, table: TableId) -> StorageError {
        let name = self
            .db
            .table_def(table)
            .map(|d| d.name)
            .unwrap_or_else(|_| format!("{table:?}"));
        StorageError::RowNotFound { table: name }
    }

    // ----------------------------------------------------------- savepoints

    /// Capture the current write set as a savepoint. Rolling back to it
    /// discards every write issued after this call (row ids allocated in
    /// between are burned, never reused — ids are not transactional).
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            writes: self.writes.clone(),
            created: self.created.clone(),
        }
    }

    /// Restore the write set captured by [`Transaction::savepoint`].
    pub fn rollback_to(&mut self, sp: &Savepoint) -> Result<()> {
        self.check_active()?;
        self.writes = sp.writes.clone();
        self.created = sp.created.clone();
        Ok(())
    }

    // ---------------------------------------------------------- termination

    /// Commit. Returns the commit timestamp (the snapshot timestamp if the
    /// transaction wrote nothing) once the commit is durable at the
    /// database's durability level. An error from the wait for the disk
    /// is still a commit: the versions are visible, they just may not
    /// survive a crash.
    pub fn commit(self) -> Result<Ts> {
        let (ts, durability) = self.commit_visible()?;
        durability.wait()?;
        Ok(ts)
    }

    /// The first half of [`Transaction::commit`]: returns as soon as the
    /// commit is visible to every later snapshot, and hands back the wait
    /// for the disk. For a caller that holds a lock of its own across the
    /// commit and can let go of it before the `fsync` — so that the
    /// commits queued behind that lock share a group-commit batch instead
    /// of paying one flush each.
    pub fn commit_visible(mut self) -> Result<(Ts, Durability)> {
        self.check_active()?;
        match self.db.clone().commit_txn(&mut self) {
            Ok((ts, ticket)) => {
                self.state = TxnState::Committed;
                let ticket = ticket.map(|t| (self.db.clone(), t));
                Ok((ts, Durability { ticket }))
            }
            Err(e) => {
                self.state = TxnState::Aborted;
                self.db.clone().abort_txn(self.id, true); // failed commit is an abort
                Err(e)
            }
        }
    }

    /// Abort, discarding all buffered writes.
    pub fn abort(mut self) {
        if self.state == TxnState::Active {
            self.state = TxnState::Aborted;
            let had_writes = self.write_count() > 0;
            self.db.clone().abort_txn(self.id, had_writes);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            self.state = TxnState::Aborted;
            // Dropping a read-only transaction is a quiet close, not an
            // abort; only discarded writes count toward the abort stat.
            let had_writes = self.writes.values().any(|m| !m.is_empty());
            self.db.clone().abort_txn(self.id, had_writes);
        }
    }
}

/// The named index of `t`, or the typed error naming both.
fn require_index<'t>(t: &'t TableStore, index: &str) -> Result<&'t IndexStore> {
    t.index_by_name(index)
        .map(|(_, idx)| idx)
        .ok_or_else(|| StorageError::UnknownIndex {
            table: t.definition().name.clone(),
            index: index.to_owned(),
        })
}

/// Validation, called by [`Database::commit_txn`] with the table write
/// locks held: first committer wins. A write to a row that gained a
/// version past this transaction's snapshot aborts with
/// [`StorageError::WriteConflict`], and so does a write to a row RAM holds
/// no chain of that the transaction did not insert: it saw the row live,
/// and demotion to the cold tier takes a whole chain only when its newest
/// version is a delete. A row the transaction expects unchanged
/// ([`Transaction::expect_unchanged`]) and did not insert must still have
/// a put at or below the snapshot as its newest version, and no other
/// commit may have expected it unchanged since the snapshot; a delete
/// fails on such an expectation too. Unique constraints are then checked
/// against the latest committed state plus this batch.
pub(crate) fn validate_writes(
    txn_writes: &BTreeMap<TableId, BTreeMap<RowId, WriteOp>>,
    created: &HashSet<(TableId, RowId)>,
    expected: &[(TableId, RowId)],
    snapshot: Ts,
    txn: TxnId,
    tables: &BTreeMap<TableId, RwLockWriteGuard<'_, TableStore>>,
) -> Result<()> {
    for &(tid, rid) in expected {
        let store = tables.get(&tid).ok_or(StorageError::UnknownTableId(tid))?;
        if !created.contains(&(tid, rid))
            && (!store.unchanged_since(rid, snapshot) || store.expected_since(rid, snapshot))
        {
            return Err(StorageError::WriteConflict {
                table: store.definition().name.clone(),
                txn,
            });
        }
    }
    for (&tid, writes) in txn_writes {
        let store = tables.get(&tid).ok_or(StorageError::UnknownTableId(tid))?;
        for (&rid, op) in writes {
            if created.contains(&(tid, rid)) {
                continue;
            }
            let expected_since =
                matches!(op, WriteOp::Delete) && store.expected_since(rid, snapshot);
            if expected_since
                || store
                    .newest_commit_ts(rid)
                    .is_none_or(|newest| newest > snapshot)
            {
                return Err(StorageError::WriteConflict {
                    table: store.definition().name.clone(),
                    txn,
                });
            }
        }
        for (ipos, idx) in store.indexes().iter().enumerate() {
            if !idx.definition().unique {
                continue;
            }
            let mut pending: BTreeMap<IndexKey, RowId> = BTreeMap::new();
            for (&rid, op) in writes {
                if let Some(row) = op.row() {
                    let key = idx.key_of(row);
                    if let Some(prev) = pending.insert(key, rid) {
                        if prev != rid {
                            return Err(StorageError::UniqueViolation {
                                table: store.definition().name.clone(),
                                index: idx.definition().name.clone(),
                            });
                        }
                    }
                }
            }
            let written: HashSet<RowId> = writes.keys().copied().collect();
            for key in pending.keys() {
                if store.unique_conflict(ipos, key, &|rid| written.contains(&rid)) {
                    return Err(StorageError::UniqueViolation {
                        table: store.definition().name.clone(),
                        index: idx.definition().name.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}
