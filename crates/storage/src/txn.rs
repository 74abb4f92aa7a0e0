//! Transactions: snapshot-isolated reads, buffered writes, optimistic
//! commit.
//!
//! A transaction takes its snapshot timestamp at `begin`, reads the world
//! as of that timestamp (plus its own uncommitted writes), and buffers all
//! writes locally. At commit, the engine validates that no other
//! transaction committed a newer version of any written row (first
//! committer wins), checks unique constraints against the then-current
//! state, encodes its WAL frame from the write buffer, and publishes all
//! versions under the commit lock: commits run one at a time, and a
//! snapshot is the newest commit timestamp (`crate::commit`). This is
//! exactly the guarantee the TeNDaX papers lean on: each keystroke batch
//! is an ACID transaction, and concurrent editors conflict only when
//! they touch the same rows.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::cold::ColdStore;
use crate::commit::LockedTables;
use crate::db::Database;
use crate::error::{Result, StorageError};
use crate::index::{EntryRange, IndexKey, IndexStore};
use crate::query::Predicate;
use crate::row::{Row, RowId, SharedRow};
use crate::schema::{FieldSet, TableId, MAX_COLUMNS};
use crate::table::{TableStore, Ts, VersionOp};
use crate::value::{Value, ValueRef};
use crate::wal::codec::OpRef;
use crate::wal::{WalOp, WalTicket};

/// Transaction identifier (unique per database instance lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A buffered, not-yet-committed write. A row is packed once, where it
/// is built — from the values the client handed to `insert`, or from the
/// row it updates — into the allocation the version store keeps and the
/// WAL encoder copies: nothing packs it again. A later write of the same
/// row packs a fresh one and supersedes this.
///
/// `Patch` is a column update ([`Transaction::set`]): the row is fully
/// materialized against this transaction's snapshot (so reads-through
/// behave exactly like a `Put`), and `fields` holds the column positions
/// written: the log records only those columns.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    Put(SharedRow),
    Delete,
    Patch { row: SharedRow, fields: FieldSet },
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

    /// The op as its commit's log record carries it.
    pub(crate) fn logged(&self) -> OpRef<'_> {
        match self {
            WriteOp::Put(r) => OpRef::Put(r),
            WriteOp::Delete => OpRef::Delete,
            // A column update logs only the columns it wrote: replay
            // composes them onto the row's newest state, which is the row
            // this commit replaced.
            WriteOp::Patch { row, fields } => OpRef::Patch(row, *fields),
        }
    }
}

/// One entry of a transaction's write buffer.
#[derive(Debug, Clone)]
pub(crate) struct Write {
    pub(crate) table: TableId,
    pub(crate) row: RowId,
    pub(crate) op: WriteOp,
    /// The transaction inserted the row, so no other can have written
    /// it: the write cannot conflict.
    pub(crate) inserted: bool,
}

impl Write {
    fn key(&self) -> (TableId, RowId) {
        (self.table, self.row)
    }
}

/// A captured write-set state — the length of the write buffer, and how
/// many rollbacks had cut it by then; see [`Transaction::savepoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint {
    txn: TxnId,
    writes: usize,
    rollbacks: usize,
}

/// Where each written row's newest write is in a write buffer, over its
/// first `indexed` writes. A lookup catches it up first, so a
/// transaction that never reads a row it wrote builds none of it.
#[derive(Debug, Default)]
struct Newest {
    at: HashMap<(TableId, RowId), usize>,
    indexed: usize,
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

/// A table handle a transaction holds.
pub(crate) type TableHandle = (TableId, Arc<RwLock<TableStore>>);

/// An open transaction. Dropping an active transaction aborts it.
#[derive(Debug)]
pub struct Transaction {
    db: Database,
    id: TxnId,
    snapshot: Ts,
    /// The write buffer: every write in the order issued, so that a
    /// row's newest write is the last of its own, and a savepoint is a
    /// length. A commit takes the newest write of each row
    /// ([`settle`]).
    pub(crate) writes: Vec<Write>,
    /// Where each written row's newest write is in `writes`.
    newest: RefCell<Newest>,
    /// The length each rollback that dropped writes cut the buffer to,
    /// in order: a savepoint longer than a cut made after it is stale.
    cuts: Vec<usize>,
    /// Rows the commit depends on without writing them
    /// ([`Transaction::expect_unchanged`]).
    pub(crate) expected: Vec<(TableId, RowId)>,
    state: TxnState,
    /// Table handles this transaction has touched. Repeated reads of the
    /// same table (the per-character hot loop) skip the database's global
    /// table-map lock entirely, and the commit locks its tables through
    /// them. A handle pinned here keeps serving the snapshot even if the
    /// table is dropped mid-transaction — exactly the isolation a
    /// snapshot reader expects.
    pub(crate) handles: RefCell<Vec<TableHandle>>,
}

impl Transaction {
    pub(crate) fn new(db: Database, id: TxnId, snapshot: Ts) -> Self {
        Transaction {
            db,
            id,
            snapshot,
            writes: Vec::new(),
            newest: RefCell::default(),
            cuts: Vec::new(),
            expected: Vec::new(),
            state: TxnState::Active,
            handles: RefCell::new(Vec::new()),
        }
    }

    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The commit timestamp this transaction reads as of.
    pub fn snapshot_ts(&self) -> Ts {
        self.snapshot
    }

    /// Number of buffered writes: rows written, each counted once, less
    /// those the transaction both inserted and deleted.
    pub fn write_count(&self) -> usize {
        if self.writes.is_empty() {
            return 0;
        }
        let newest = self.newest();
        (newest.at.values())
            .filter(|&&i| !vanishes(&self.writes[i]))
            .count()
    }

    fn check_active(&self) -> Result<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(StorageError::TxnClosed(self.id))
        }
    }

    /// [`Transaction::newest`], caught up with the write buffer.
    fn newest(&self) -> std::cell::RefMut<'_, Newest> {
        let mut newest = self.newest.borrow_mut();
        let from = newest.indexed;
        for (i, w) in self.writes.iter().enumerate().skip(from) {
            newest.at.insert(w.key(), i);
        }
        newest.indexed = self.writes.len();
        newest
    }

    /// This transaction's newest write of `row`, if it wrote the row.
    fn own_write(&self, table: TableId, row: RowId) -> Option<&Write> {
        if self.writes.is_empty() {
            return None;
        }
        let at = self.newest().at.get(&(table, row)).copied();
        at.map(|i| &self.writes[i])
    }

    /// Whether this transaction inserted `row`.
    fn inserted(&self, table: TableId, row: RowId) -> bool {
        self.own_write(table, row).is_some_and(|w| w.inserted)
    }

    /// Buffer a write, the newest of its row.
    fn push_write(&mut self, table: TableId, row: RowId, op: WriteOp, inserted: bool) {
        self.writes.push(Write {
            table,
            row,
            op,
            inserted,
        });
    }

    /// Whether this transaction wrote any row of `table`.
    fn writes_to(&self, table: TableId) -> bool {
        self.writes.iter().any(|w| w.table == table)
    }

    /// This transaction's newest write of each row of `table` it wrote,
    /// in row-id order.
    fn own_rows(&self, table: TableId) -> Vec<(RowId, &WriteOp)> {
        let mut rows: Vec<(RowId, &WriteOp)> = (self.newest().at.iter())
            .filter(|&(&(t, _), _)| t == table)
            .map(|(&(_, rid), &i)| (rid, &self.writes[i].op))
            .collect();
        rows.sort_unstable_by_key(|&(rid, _)| rid);
        rows
    }

    pub(crate) fn db_handle(&self) -> &Database {
        &self.db
    }

    /// The table's store handle, via the per-transaction cache. Only the
    /// first touch of a table pays the global `tables` map read-lock.
    pub(crate) fn table_handle(&self, table: TableId) -> Result<Arc<RwLock<TableStore>>> {
        if let Some((_, h)) = self.handles.borrow().iter().find(|(t, _)| *t == table) {
            return Ok(h.clone());
        }
        let h = self.db.table_handle(table)?;
        self.handles.borrow_mut().push((table, h.clone()));
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
        if let Some(w) = self.own_write(table, row) {
            return Ok(w.op.row().cloned());
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
        if !self.writes_to(table) {
            return Ok(committed);
        }
        // Merge the committed rows (row-id ordered) with the own-write
        // overlay (also ordered): a two-pointer pass that yields each row
        // exactly once.
        let ws = self.own_rows(table);
        let def = self.db.table_def(table)?;
        let mut merged = Vec::with_capacity(committed.len() + ws.len());
        let mut own = ws.iter().map(|(rid, op)| (rid, *op)).peekable();
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

    /// Count rows matching `pred`. Without own writes on the table (and at
    /// or above the cold floor) the predicate runs against the stored
    /// versions in place and nothing is materialized.
    pub fn count(&self, table: TableId, pred: &Predicate) -> Result<usize> {
        self.check_active()?;
        if !self.writes_to(table) {
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
        if cold.is_none() && !self.writes_to(table) {
            return Ok(committed);
        }
        let own = self.own_rows(table);
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
                if own.binary_search_by_key(&rid, |&(r, _)| r).is_err() {
                    admit(rid, row);
                }
            }
            for &(rid, op) in &own {
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
        let own = if self.writes_to(table) {
            let ws = self.own_rows(table);
            let rows = (ws.into_iter()).filter_map(|(rid, op)| Some((rid, op.row()?.clone())));
            self.greatest_key_in(table, index, &range, rows)?
        } else {
            None
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

    /// Insert a new row, returning its id. The same validator and packer
    /// as [`Transaction::insert_refs`], over the row's values.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<RowId> {
        self.insert_values(table, row.values().iter().map(Value::view))
    }

    /// Insert a new row of borrowed values, returning its id: the values
    /// are validated and packed straight into the row's one allocation,
    /// with nothing owned built on the way.
    pub fn insert_refs(&mut self, table: TableId, values: &[ValueRef<'_>]) -> Result<RowId> {
        self.insert_values(table, values.iter().copied())
    }

    fn insert_values<'v>(
        &mut self,
        table: TableId,
        values: impl ExactSizeIterator<Item = ValueRef<'v>> + Clone,
    ) -> Result<RowId> {
        self.check_active()?;
        let rid = self.with_table(table, |t| {
            t.definition().validate_row(values.clone())?;
            Ok::<_, StorageError>(t.allocate_row_id())
        })??;
        self.push_write(table, rid, WriteOp::Put(SharedRow::pack(values)), true);
        Ok(rid)
    }

    /// Replace an existing (visible) row wholesale.
    pub fn update(&mut self, table: TableId, row: RowId, new_row: Row) -> Result<()> {
        self.check_active()?;
        if self.get(table, row)?.is_none() {
            return Err(self.not_found(table));
        }
        let values = new_row.values().iter().map(Value::view);
        self.with_table(table, |t| t.definition().validate_row(values.clone()))??;
        let inserted = self.inserted(table, row);
        self.push_write(table, row, WriteOp::Put(SharedRow::pack(values)), inserted);
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
        let (new_row, fields) = self.with_table(table, |t| {
            let def = t.definition();
            let mut fields = FieldSet::default();
            // One more than the index of the update that writes each
            // column last; 0 for a column none writes.
            let mut last = [0; MAX_COLUMNS];
            for (i, (col, val)) in updates.iter().enumerate() {
                let pos = def.require_column(col)?;
                def.validate_value(pos, val.view())?;
                fields = fields.union(FieldSet::of(pos));
                last[pos] = i + 1;
            }
            let new = |pos: usize| last[pos].checked_sub(1).map(|i| updates[i].1.view());
            Ok::<_, StorageError>((current.with_updates(new), fields))
        })??;
        let (op, inserted) = match self.own_write(table, row) {
            Some(Write {
                op: WriteOp::Put(_),
                inserted,
                ..
            }) => (WriteOp::Put(new_row), *inserted),
            Some(Write {
                op: WriteOp::Patch { fields: before, .. },
                inserted,
                ..
            }) => {
                let fields = before.union(fields);
                (
                    WriteOp::Patch {
                        row: new_row,
                        fields,
                    },
                    *inserted,
                )
            }
            // `get` above saw the row, so a buffered delete is impossible.
            Some(Write {
                op: WriteOp::Delete,
                ..
            }) => unreachable!("set after delete"),
            None => (
                WriteOp::Patch {
                    row: new_row,
                    fields,
                },
                false,
            ),
        };
        self.push_write(table, row, op, inserted);
        Ok(())
    }

    /// Delete a visible row. A row this transaction inserted simply
    /// vanishes: its commit neither writes nor logs it.
    pub fn delete(&mut self, table: TableId, row: RowId) -> Result<()> {
        self.check_active()?;
        if self.get(table, row)?.is_none() {
            return Err(self.not_found(table));
        }
        let inserted = self.inserted(table, row);
        self.push_write(table, row, WriteOp::Delete, inserted);
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
    /// between are burned, never reused — ids are not transactional),
    /// and can be done any number of times. A savepoint taken after the
    /// point a later rollback returned to is stale: the writes it kept
    /// are gone.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            txn: self.id,
            writes: self.writes.len(),
            rollbacks: self.cuts.len(),
        }
    }

    /// Restore the write set captured by [`Transaction::savepoint`].
    /// Fails with [`StorageError::StaleSavepoint`], changing nothing, for
    /// a savepoint that is stale or was taken by another transaction.
    pub fn rollback_to(&mut self, sp: &Savepoint) -> Result<()> {
        self.check_active()?;
        let kept = |cuts: &[usize]| cuts.iter().all(|&cut| cut >= sp.writes);
        let ours = sp.txn == self.id && sp.writes <= self.writes.len();
        if !ours || !self.cuts.get(sp.rollbacks..).is_some_and(kept) {
            return Err(StorageError::StaleSavepoint);
        }
        if sp.writes < self.writes.len() {
            self.writes.truncate(sp.writes);
            self.cuts.push(sp.writes);
            *self.newest.get_mut() = Newest::default();
        }
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
            let had_writes = self.write_count() > 0;
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

/// The write buffer as a commit takes it: the newest write of each row,
/// in `(table, row)` order, less the rows the transaction both inserted
/// and deleted. A keystroke's writes are in that order already.
pub(crate) fn settle(writes: &mut Vec<Write>) {
    if !writes.is_sorted_by(|a, b| a.key() < b.key()) {
        // Newest first, so that the stable sort keeps a row's newest
        // write at the front of its run for the dedup to keep.
        writes.reverse();
        writes.sort_by_key(Write::key);
        writes.dedup_by_key(|w| w.key());
    }
    writes.retain(|w| !vanishes(w));
}

/// Whether `w`, a row's newest write, deletes a row the transaction
/// inserted: the write set holds nothing of it.
fn vanishes(w: &Write) -> bool {
    w.inserted && matches!(w.op, WriteOp::Delete)
}

/// Validation, called by [`Database::commit_txn`] with the tables the
/// commit writes or expects write-locked and `writes` settled: first
/// committer wins. A write to a row that gained a version past this
/// transaction's snapshot aborts with [`StorageError::WriteConflict`], and
/// so does a write to a row RAM holds no chain of that the transaction did
/// not insert: it saw the row live, and demotion to the cold tier takes a
/// whole chain only when its newest version is a delete. A row the
/// transaction expects unchanged ([`Transaction::expect_unchanged`]) and
/// did not insert must still have a put at or below the snapshot as its
/// newest version, and no other commit may have expected it unchanged
/// since the snapshot; a delete fails on such an expectation too. Unique
/// constraints are then checked against the latest committed state plus
/// this batch.
pub(crate) fn validate_writes(
    writes: &[Write],
    expected: &[(TableId, RowId)],
    snapshot: Ts,
    txn: TxnId,
    tables: &dyn LockedTables,
) -> Result<()> {
    let store_of = |tid| tables.get(tid).ok_or(StorageError::UnknownTableId(tid));
    let conflict = |store: &TableStore| StorageError::WriteConflict {
        table: store.definition().name.clone(),
        txn,
    };
    for &(tid, rid) in expected {
        let store = store_of(tid)?;
        let inserted = (writes.binary_search_by_key(&(tid, rid), Write::key).ok())
            .is_some_and(|i| writes[i].inserted);
        if !inserted
            && (!store.unchanged_since(rid, snapshot) || store.expected_since(rid, snapshot))
        {
            return Err(conflict(store));
        }
    }
    for run in writes.chunk_by(|a, b| a.table == b.table) {
        let store = store_of(run[0].table)?;
        for w in run.iter().filter(|w| !w.inserted) {
            let expected_since =
                matches!(w.op, WriteOp::Delete) && store.expected_since(w.row, snapshot);
            if expected_since
                || store
                    .newest_commit_ts(w.row)
                    .is_none_or(|newest| newest > snapshot)
            {
                return Err(conflict(store));
            }
        }
        for (ipos, idx) in store.indexes().iter().enumerate() {
            if !idx.definition().unique {
                continue;
            }
            let violation = || StorageError::UniqueViolation {
                table: store.definition().name.clone(),
                index: idx.definition().name.clone(),
            };
            let mut pending: BTreeMap<IndexKey, RowId> = BTreeMap::new();
            for w in run {
                if let Some(row) = w.op.row() {
                    if pending.insert(idx.key_of(row), w.row).is_some() {
                        // Two rows of the batch, each written once.
                        return Err(violation());
                    }
                }
            }
            let written = |rid: RowId| run.binary_search_by_key(&rid, |w| w.row).is_ok();
            for key in pending.keys() {
                if store.unique_conflict(ipos, key, &written) {
                    return Err(violation());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;
    use crate::schema::TableDef;
    use crate::value::DataType;
    use crate::wal::codec::{decode_record, encode_record, put_commit};
    use crate::wal::{WalRecord, WalWrite};

    /// A row's write as the write set kept it before the write buffer:
    /// one entry per row, updated in place.
    #[derive(Debug, Clone)]
    enum Kept {
        Put(Vec<Value>),
        Delete,
        Patch(Vec<Value>, BTreeSet<u32>),
    }

    fn defs() -> [TableDef; 2] {
        [
            TableDef::new("a")
                .column("k", DataType::Id)
                .nullable_column("t", DataType::Text)
                .column("n", DataType::Int)
                .column("b", DataType::Bool)
                .index("a_by_k", &["k"]),
            TableDef::new("b")
                .column("x", DataType::Int)
                .nullable_column("y", DataType::Timestamp),
        ]
    }

    /// Column `pos` of table `t`'s row, from the bits of `r`.
    fn value(t: usize, pos: usize, r: u64) -> Value {
        let n = r >> (r % 61);
        match (t, pos) {
            (0, 0) => Value::Id(n),
            (0, 1) if r.is_multiple_of(5) => Value::Null,
            (0, 1) => Value::Text(["", "é", "typed", "𝄞x"][(r % 4) as usize].into()),
            (0, 2) | (1, 0) => Value::Int(n as i64 - (r % 3) as i64 * 1000),
            (0, 3) => Value::Bool(r % 2 == 1),
            (1, 1) if r.is_multiple_of(4) => Value::Null,
            _ => Value::Timestamp(-(n as i64 >> 1)),
        }
    }

    fn row_of(t: usize, r: u64) -> Vec<Value> {
        let cols = defs()[t].columns.len();
        (0..cols)
            .map(|pos| value(t, pos, r.rotate_left(pos as u32 * 7)))
            .collect()
    }

    /// The commit record the write set before the write buffer logged.
    fn kept_record(commit_ts: Ts, kept: &BTreeMap<(TableId, RowId), Kept>) -> WalRecord {
        let writes = (kept.iter())
            .map(|(&(table, row), k)| WalWrite {
                table,
                row,
                op: match k {
                    Kept::Put(values) => WalOp::Put(Row::new(values.clone()).into_shared()),
                    Kept::Delete => WalOp::Delete,
                    Kept::Patch(values, fields) => WalOp::Patch {
                        fields: fields.iter().copied().collect(),
                        values: fields.iter().map(|&f| values[f as usize].clone()).collect(),
                    },
                },
            })
            .collect();
        WalRecord::Commit { commit_ts, writes }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write sets — inserts, whole-row updates, column
        /// updates (a column named twice: the last value wins), deletes
        /// of committed rows and of rows the transaction inserted — give
        /// the commit frame the write set before the write buffer logged,
        /// byte for byte, and it decodes to that record.
        #[test]
        fn the_frame_of_a_write_buffer_is_the_record_the_write_set_logged(
            steps in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..48)
        ) {
            let db = Database::open_in_memory();
            let defs = defs();
            let tables = defs.clone().map(|def| db.create_table(def).unwrap());
            let mut base = db.begin();
            let mut live = Vec::new();
            for (t, &table) in tables.iter().enumerate() {
                for r in 0..6 {
                    let rid = base.insert(table, Row::new(row_of(t, r * 977))).unwrap();
                    live.push((t, rid));
                }
            }
            base.commit().unwrap();

            let mut txn = db.begin();
            let mut kept: BTreeMap<(TableId, RowId), Kept> = BTreeMap::new();
            let mut created = BTreeSet::new();
            for &(kind, pick, r) in &steps {
                if live.is_empty() && kind % 4 != 0 {
                    continue;
                }
                let at = (pick % live.len().max(1) as u64) as usize;
                match kind % 4 {
                    0 => {
                        let t = (pick % 2) as usize;
                        let values = row_of(t, r);
                        let refs: Vec<_> = values.iter().map(Value::view).collect();
                        let rid = txn.insert_refs(tables[t], &refs).unwrap();
                        live.push((t, rid));
                        created.insert((tables[t], rid));
                        kept.insert((tables[t], rid), Kept::Put(values));
                    }
                    1 => {
                        let (t, rid) = live[at];
                        let values = row_of(t, r);
                        txn.update(tables[t], rid, Row::new(values.clone())).unwrap();
                        kept.insert((tables[t], rid), Kept::Put(values));
                    }
                    2 => {
                        let (t, rid) = live[at];
                        let table = tables[t];
                        let def = &defs[t];
                        let cols = def.columns.len();
                        let mut values = txn.get(table, rid).unwrap().unwrap().values();
                        let mut updates = Vec::new();
                        let mut fields = BTreeSet::new();
                        for pos in (0..cols).filter(|pos| r >> pos & 1 == 1 || *pos == (r % cols as u64) as usize) {
                            let v = value(t, pos, r.rotate_right(pos as u32 + 3));
                            updates.push((def.columns[pos].name.as_str(), v.clone()));
                            values[pos] = v;
                            fields.insert(pos as u32);
                        }
                        if r >> 40 & 1 == 1 {
                            // The first column again: its second value wins.
                            let (name, _) = updates[0];
                            let pos = def.column_position(name).unwrap();
                            let v = value(t, pos, !r);
                            updates.push((name, v.clone()));
                            values[pos] = v;
                        }
                        txn.set(table, rid, &updates).unwrap();
                        let entry = kept.remove(&(table, rid));
                        let now = match entry {
                            Some(Kept::Put(_)) => Kept::Put(values),
                            Some(Kept::Patch(_, before)) => {
                                Kept::Patch(values, before.union(&fields).copied().collect())
                            }
                            Some(Kept::Delete) => unreachable!("a deleted row is not live"),
                            None => Kept::Patch(values, fields),
                        };
                        kept.insert((table, rid), now);
                    }
                    _ => {
                        let (t, rid) = live.remove(at);
                        txn.delete(tables[t], rid).unwrap();
                        if created.remove(&(tables[t], rid)) {
                            kept.remove(&(tables[t], rid));
                        } else {
                            kept.insert((tables[t], rid), Kept::Delete);
                        }
                    }
                }
            }
            prop_assert_eq!(txn.write_count(), kept.len());
            let want = kept_record(42, &kept);
            let mut writes = txn.writes.clone();
            settle(&mut writes);
            let mut frame = Vec::new();
            put_commit(&mut frame, 42, writes.iter().map(|w| (w.table, w.row, w.op.logged())));
            prop_assert_eq!(&frame, &encode_record(&want));
            prop_assert_eq!(decode_record(&frame).unwrap(), want);
        }
    }

    #[test]
    fn a_savepoint_is_a_length_of_the_write_buffer() {
        const N: usize = 40;
        let db = Database::open_in_memory();
        let table = db.create_table(defs()[1].clone()).unwrap();
        let mut txn = db.begin();
        let row = |x| Row::new(vec![Value::Int(x), Value::Null]);
        for x in 0..N as i64 {
            txn.insert(table, row(x)).unwrap();
        }
        let sp = txn.savepoint();
        let a = txn.insert(table, row(-1)).unwrap();
        let first = RowId(1);
        txn.set(table, first, &[("x", Value::Int(99))]).unwrap();
        assert_eq!(
            txn.get(table, first).unwrap().unwrap().get(0),
            Some(ValueRef::Int(99))
        );
        txn.rollback_to(&sp).unwrap();
        assert_eq!(
            txn.get(table, a).unwrap(),
            None,
            "the insert after it is gone"
        );
        assert_eq!(
            txn.get(table, first).unwrap().unwrap().get(0),
            Some(ValueRef::Int(0))
        );
        assert_eq!(txn.write_count(), N);
        txn.delete(table, first).unwrap();
        assert_eq!(txn.write_count(), N - 1, "an own insert deleted vanishes");
        txn.commit().unwrap();
        assert_eq!(db.begin().count(table, &Predicate::True).unwrap(), N - 1);
    }
}
